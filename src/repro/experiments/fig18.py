"""Fig. 18 — row-buffer size sensitivity (2 KB / 4 KB / 8 KB, 100 % alloc).

Smaller rows couple fewer cachelines per refresh group, so sporadic
outlier lines spoil fewer groups: the paper measures 46.3 % reduction
at 2 KB, 37.1 % at 4 KB and 33.9 % at 8 KB.
"""

from __future__ import annotations

from repro.scenarios.spec import ScenarioSpec, SweepAxis

ROW_SIZES = (2048, 4096, 8192)
PAPER_REDUCTION = {2048: 0.463, 4096: 0.371, 8192: 0.339}

SPEC = ScenarioSpec(
    scenario_id="fig18",
    description="Refresh reduction vs row buffer size (2/4/8 KB)",
    axes=(
        SweepAxis("row_bytes", values=list(ROW_SIZES)),
        SweepAxis("benchmark"),
    ),
    reduction="benchmark_grid",
    reduction_params={
        "title": "Normalized refresh vs row buffer size (100% allocated)",
        "metric": "normalized_refresh",
        "columns": [f"{r // 1024}KB" for r in ROW_SIZES],
        "extra_rows": [["paper avg"] + [1.0 - PAPER_REDUCTION[r]
                                        for r in ROW_SIZES]],
        "paper_reference": {f"{r // 1024}KB": 1.0 - PAPER_REDUCTION[r]
                            for r in ROW_SIZES},
        "notes": (
            "ordering 2KB < 4KB < 8KB must hold; the synthetic content "
            "understates the paper's 2KB gain (see EXPERIMENTS.md)"
        ),
    },
)
