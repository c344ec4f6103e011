"""Fig. 17 — normalised IPC with ZERO-REFRESH (100 % allocated).

Skipped refreshes return bank time to demand accesses; the paper
reports +5.7 % IPC on average, max +10.8 % (gemsFDTD), min +0.3 %
(gobmk).  The analytical core model converts each benchmark's measured
refresh statistics into bank unavailability and IPC.
"""

from __future__ import annotations

import numpy as np

from repro.scenarios.spec import ScenarioSpec, SweepAxis

SPEC = ScenarioSpec(
    scenario_id="fig17",
    description="Normalized IPC vs conventional refresh (100% allocated)",
    axes=(SweepAxis("benchmark"),),
    reduction="repro.experiments.fig17:reduce_scenario",
)


def reduce_scenario(spec, settings, axes, results):
    from repro.experiments.runner import ExperimentResult

    names = axes["benchmark"]
    rows = []
    gains = []
    for name, result in zip(names, results):
        ipc = result.ipc
        rows.append([name, ipc.normalized_ipc, f"{ipc.speedup_percent:+.2f}%"])
        gains.append(ipc.speedup_percent)
    rows.append(["average", 1.0 + float(np.mean(gains)) / 100.0,
                 f"{float(np.mean(gains)):+.2f}%"])
    return ExperimentResult(
        experiment_id=spec.scenario_id,
        title="Normalized IPC vs conventional refresh (100% allocated)",
        headers=["benchmark", "normalized IPC", "speedup"],
        rows=rows,
        paper_reference={"avg": "+5.7%", "max (gemsFDTD)": "+10.8%",
                         "min (gobmk)": "+0.3%"},
    )
