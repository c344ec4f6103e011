"""Fig. 14 — normalised refresh operations under four allocation levels.

The paper's headline result: full simulation of every benchmark at
100 % / 88 % (Alibaba) / 70 % (Google) / 28 % (Bitbrains) allocated
memory, reporting refresh operations relative to conventional
auto-refresh.  Paper averages: 0.629 / 0.54 / 0.43 / 0.17 normalised
(reductions 37 % / 46 % / 57 % / 83 %).
"""

from __future__ import annotations

from repro.osmodel.scenarios import PAPER_SCENARIOS
from repro.scenarios.spec import ScenarioSpec, SweepAxis

SCENARIO_ORDER = ("100%", "88%", "70%", "28%")
PAPER_AVG_REDUCTION = {"100%": 0.371, "88%": 0.46, "70%": 0.57, "28%": 0.83}

SPEC = ScenarioSpec(
    scenario_id="fig14",
    description="Normalized refresh operations at four allocation levels",
    axes=(
        SweepAxis("allocated_fraction",
                  values=[PAPER_SCENARIOS[s].allocated_fraction
                          for s in SCENARIO_ORDER]),
        SweepAxis("benchmark"),
    ),
    reduction="benchmark_grid",
    reduction_params={
        "title": "Normalized refresh operations (lower is better)",
        "metric": "normalized_refresh",
        "columns": list(SCENARIO_ORDER),
        "extra_rows": [["paper avg"] + [1.0 - PAPER_AVG_REDUCTION[s]
                                        for s in SCENARIO_ORDER]],
        "paper_reference": {f"avg@{s}": 1.0 - PAPER_AVG_REDUCTION[s]
                            for s in SCENARIO_ORDER},
    },
)
