"""Sec. IV-B — tracking-structure cost comparison (naive vs. optimised).

The design-point table behind ZERO-REFRESH's tracking architecture at
the paper's 32 GB / 8-bank / 4 KB-row scale:

* naive: one SRAM bit per row -> 1 MB SRAM, 337.14 mW leakage;
* optimised: 8 KB access-bit SRAM (2.71 mW, 0.076 mm²) + the status
  table moved into DRAM (1 MB of DRAM, ~0.003 % of capacity) + a 16 B
  staging register per rank.
"""

from __future__ import annotations

from repro.scenarios.spec import ScenarioSpec

SPEC = ScenarioSpec(
    scenario_id="sram",
    description="Tracking-structure cost: naive vs optimised (Sec. IV-B)",
    point="repro.experiments.sram_overhead:tracking_cost_point",
    reduction="table",
    reduction_params={
        "title": "Discharged-row tracking cost at 32 GB (Sec. IV-B)",
        "headers": ["design", "storage", "leakage mW", "area mm2"],
        "paper_reference": {"naive leakage mW": 337.14,
                            "optimised leakage mW": 2.71,
                            "optimised area mm2": 0.076},
    },
)


def tracking_cost_point(settings, job) -> list:
    from repro.dram.geometry import DramGeometry
    from repro.dram.tracking import (
        AccessBitTable,
        DischargedStatusTable,
        NaiveSramTracker,
    )
    from repro.energy.sram import SramModel

    geometry = DramGeometry.paper_config()
    sram = SramModel()
    naive = NaiveSramTracker(geometry)
    access_bits = AccessBitTable(geometry)
    status = DischargedStatusTable(geometry)

    naive_bytes = naive.costs.sram_bytes
    opt_sram_bytes = access_bits.costs.sram_bytes
    return [
        ["naive: per-row SRAM table",
         f"{naive_bytes / 1024:.0f} KB SRAM",
         sram.leakage_mw(naive_bytes),
         sram.area_mm2(naive_bytes)],
        ["optimised: access-bit SRAM",
         f"{opt_sram_bytes / 1024:.0f} KB SRAM",
         sram.leakage_mw(opt_sram_bytes),
         sram.area_mm2(opt_sram_bytes)],
        ["optimised: status table in DRAM",
         f"{status.costs.dram_bytes / 1024:.0f} KB DRAM",
         0.0, 0.0],
        ["optimised: charge-state register",
         f"{status.costs.sram_bits // 8} B register",
         0.0, 0.0],
    ]
