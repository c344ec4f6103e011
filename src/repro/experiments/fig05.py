"""Fig. 5 — cumulative distributions of memory utilisation (three traces).

The figure plots full CDFs; the table reports the CDF evaluated at a
utilisation grid plus the percentile summary, which captures the same
series (Alibaba concentrated high, Google mid, Bitbrains low/wide).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import empirical_cdf
from repro.scenarios.spec import ScenarioSpec, SweepAxis
from repro.workloads.datacenter import paper_traces

GRID = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])

SPEC = ScenarioSpec(
    scenario_id="fig05",
    description="Memory-utilisation CDFs of the three datacenter traces",
    axes=(
        SweepAxis("params.trace",
                  source="repro.experiments.fig05:trace_names"),
    ),
    point="repro.experiments.fig05:cdf_point",
    reduction="concat_rows",
    reduction_params={
        "title": "Memory-utilisation CDFs, P(util <= x)",
        "headers": ["trace"] + [f"x={g:.1f}" for g in GRID],
        "notes": (
            "Expected shape: alibaba ~0 until x=0.8 then steep; google "
            "rises around x=0.6-0.8; bitbrains reaches ~0.9 by x=0.5"
        ),
    },
)


def trace_names(settings) -> list:
    return list(paper_traces())


def cdf_point(settings, job) -> list:
    """One trace's CDF evaluated on the utilisation grid, as a row."""
    name = str(job.params["trace"])
    trace = paper_traces()[name]
    cdf = empirical_cdf(trace.samples, GRID)
    return [name] + [float(v) for v in cdf]
