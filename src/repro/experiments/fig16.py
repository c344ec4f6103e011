"""Fig. 16 — normal (64 ms) vs. extended (32 ms) temperature, 100 % alloc.

A 64 ms window sees twice the write traffic between consecutive
refreshes of a row, so slightly more AR sets are dirty and the
reduction drops a little: the paper reports ~4.4 % less reduction at
normal temperature on average.

The temperature axis rebinds an :class:`ExperimentSettings` field, so
expansion routes each cell through the settings-capable simulate point
— the scenario layer's showcase for settings-level sweep axes.
"""

from __future__ import annotations

import numpy as np

from repro.scenarios.spec import ScenarioSpec, SweepAxis

SPEC = ScenarioSpec(
    scenario_id="fig16",
    description="Refresh reduction at extended (32 ms) vs normal (64 ms)",
    axes=(
        SweepAxis("benchmark"),
        SweepAxis("temperature", values=["EXTENDED", "NORMAL"]),
    ),
    reduction="repro.experiments.fig16:reduce_scenario",
)


def reduce_scenario(spec, settings, axes, results):
    from repro.experiments.runner import ExperimentResult

    names = axes["benchmark"]
    temps = axes["temperature"]
    it = iter(results)
    rows = []
    reductions = {temp: [] for temp in temps}
    for name in names:
        row = [name]
        for temp in temps:
            result = next(it)
            row.append(result.normalized_refresh)
            reductions[temp].append(result.refresh_reduction)
        rows.append(row)
    avg_ext = float(np.mean(reductions["EXTENDED"]))
    avg_norm = float(np.mean(reductions["NORMAL"]))
    rows.append(["average", 1.0 - avg_ext, 1.0 - avg_norm])
    return ExperimentResult(
        experiment_id=spec.scenario_id,
        title="Normalized refresh: extended (32 ms) vs normal (64 ms)",
        headers=["benchmark", "extended 32ms", "normal 64ms"],
        rows=rows,
        paper_reference={"reduction delta (ext - norm)": 0.044},
        notes=f"measured delta: {avg_ext - avg_norm:+.3f}",
    )
