"""Fig. 15 — normalised refresh energy, overheads included.

Same sweep as Fig. 14, but accounting energy: row refreshes performed
plus the EBDI modules (15 pJ/op), the access-bit SRAM leakage and the
DRAM-resident status-table traffic, all relative to the conventional
baseline's refresh energy.  Paper averages: 36.5 % / 44 % / 55 % / 82 %
energy reduction — a hair under the refresh-count reduction because of
the overheads.
"""

from __future__ import annotations

from repro.osmodel.scenarios import PAPER_SCENARIOS
from repro.scenarios.spec import ScenarioSpec, SweepAxis

SCENARIO_ORDER = ("100%", "88%", "70%", "28%")
PAPER_AVG_REDUCTION = {"100%": 0.365, "88%": 0.44, "70%": 0.55, "28%": 0.82}

SPEC = ScenarioSpec(
    scenario_id="fig15",
    description="Normalized refresh energy incl. overheads, four levels",
    axes=(
        SweepAxis("allocated_fraction",
                  values=[PAPER_SCENARIOS[s].allocated_fraction
                          for s in SCENARIO_ORDER]),
        SweepAxis("benchmark"),
    ),
    reduction="benchmark_grid",
    reduction_params={
        "title": "Normalized refresh energy incl. ZERO-REFRESH overheads",
        "metric": "normalized_energy",
        "columns": list(SCENARIO_ORDER),
        "extra_rows": [["paper avg"] + [1.0 - PAPER_AVG_REDUCTION[s]
                                        for s in SCENARIO_ORDER]],
        "paper_reference": {f"avg@{s}": 1.0 - PAPER_AVG_REDUCTION[s]
                            for s in SCENARIO_ORDER},
        "notes": "energy reduction trails refresh reduction slightly "
                 "(overheads)",
    },
)
