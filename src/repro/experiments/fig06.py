"""Fig. 6 — zero fractions of benchmark memory at 1 KB and 1 B granularity.

The paper measures memory dumps of accessed pages: on average only
~2.3 % of 1 KB blocks are entirely zero, yet ~43 % of bytes are zero —
the motivation for value transformation (fine-grained zeros exist but
are not row-aligned).

One shared RNG streams every benchmark's pages sequentially, so this is
a single table point rather than a benchmark axis.
"""

from __future__ import annotations

import numpy as np

from repro.scenarios.spec import ScenarioSpec

SPEC = ScenarioSpec(
    scenario_id="fig06",
    description="Zero fractions of benchmark memory at 1 KB and 1 B",
    point="repro.experiments.fig06:zero_fraction_point",
    point_params={"pages_per_benchmark": 1024},
    reduction="table",
    reduction_params={
        "title": "Zero fraction at 1 KB blocks and single bytes "
                 "(raw content)",
        "headers": ["benchmark", "zero 1KB blocks", "zero bytes"],
        "paper_reference": {"avg zero 1KB": 0.023, "avg zero bytes": 0.43},
    },
)


def zero_fraction_point(settings, job) -> list:
    """Every benchmark's zero fractions, one shared RNG stream."""
    from repro.workloads.benchmarks import benchmark_profile
    from repro.workloads.synthetic import (
        zero_block_fraction,
        zero_byte_fraction,
    )

    pages_per_benchmark = int(job.params["pages_per_benchmark"])
    rng = np.random.default_rng(settings.seed)
    rows = []
    byte_fracs, block_fracs = [], []
    for name in settings.benchmarks:
        profile = benchmark_profile(name)
        pages = profile.generate_pages(pages_per_benchmark, rng)
        lines = pages.reshape(-1, pages.shape[-1])
        zb = zero_byte_fraction(lines)
        z1k = zero_block_fraction(lines, block_bytes=1024)
        byte_fracs.append(zb)
        block_fracs.append(z1k)
        rows.append([name, z1k, zb])
    rows.append(["average", float(np.mean(block_fracs)),
                 float(np.mean(byte_fracs))])
    return rows
