"""Ablation: compressibility vs. skippability (abl-compression).

EBDI descends from BDI, the bit-plane stage from BPC — but the goals
differ: compressors minimise *stored bits*, ZERO-REFRESH maximises
*contiguous discharged bits at constant size*.  This experiment runs
all three over every content class and shows they are correlated but
not interchangeable: classes with identical compression ratios can have
very different skippable-group counts (and zero/uniform data saturates
compressors while skippability keeps distinguishing word positions).
"""

from __future__ import annotations

import numpy as np

from repro.scenarios.spec import ScenarioSpec

SPEC = ScenarioSpec(
    scenario_id="abl-compression",
    description="Compressibility (BDI/BPC) vs skippability per content class",
    point="repro.experiments.abl_compression:compression_point",
    point_params={"lines_per_class": 512},
    reduction="table",
    reduction_params={
        "title": "Compressibility (BDI/BPC) vs skippability (ZERO-REFRESH)",
        "headers": ["content class", "BDI ratio", "BPC ratio",
                    "skippable words", "max reduction"],
        "notes": (
            "correlated but distinct objectives: e.g. float64 is nearly "
            "incompressible under BDI yet retains a skippable word; "
            "padded data is byte-sparse but neither compresses nor skips"
        ),
    },
)


def compression_point(settings, job) -> list:
    """All content classes under one shared RNG stream."""
    from repro.transform.bdi import BdiCompressor
    from repro.transform.bitplane import BitPlaneTransform
    from repro.transform.bpc import BpcCompressor
    from repro.transform.celltype import CellType
    from repro.transform.ebdi import EbdiCodec
    from repro.workloads.synthetic import LINE_CLASSES, generate_lines

    lines_per_class = int(job.params["lines_per_class"])
    rng = np.random.default_rng(settings.seed)
    bdi = BdiCompressor()
    bpc = BpcCompressor()
    ebdi = EbdiCodec()
    bitplane = BitPlaneTransform()
    rows = []
    for name in sorted(LINE_CLASSES):
        lines = generate_lines(name, lines_per_class, rng)
        encoded = bitplane.apply(ebdi.encode(lines, CellType.TRUE))
        skippable = int((encoded == 0).all(axis=0).sum())
        rows.append([
            name,
            bdi.compression_ratio(lines),
            bpc.compression_ratio(lines),
            skippable,
            skippable / 8.0,
        ])
    return rows
