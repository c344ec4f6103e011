"""Experiment runners — one per table/figure of the paper's evaluation.

========== ===============================================================
id          artifact
========== ===============================================================
fig04       refresh power share vs density/temperature (Fig. 4)
tab01       average allocated memory of the three traces (Table I)
fig05       memory-utilisation CDFs (Fig. 5)
fig06       zero fractions at 1 KB / 1 B granularity (Fig. 6)
fig14       normalised refresh ops, four allocation scenarios (Fig. 14)
fig15       normalised refresh energy incl. overheads (Fig. 15)
fig16       normal vs extended temperature (Fig. 16)
fig17       normalised IPC (Fig. 17)
fig18       row-buffer size sensitivity (Fig. 18)
fig19       Smart Refresh vs ZERO-REFRESH scalability (Fig. 19)
sram        tracking-structure costs (Sec. IV-B)
abl-*       ablations (pipeline stages, cell-type accuracy, word size,
            tracking design, AR policy, compression-vs-skippability)
ext-*       extensions (hybrid charge+recency engine, VRT exposure of
            retention-aware skipping, latency-hiding scheduler compare)
========== ===============================================================

Run from the command line::

    python -m repro.experiments fig14 --quick
    python -m repro.experiments all --quick --jobs 4
    python -m repro.experiments sweep --axis temperature=NORMAL,EXTENDED

or programmatically through :mod:`repro.api`.  Every experiment is a
declarative :class:`~repro.scenarios.spec.ScenarioSpec` (``SCENARIOS``)
expanded by the generic executor in :mod:`repro.scenarios.executor`
into the parallel, cache-aware engine of
:mod:`repro.experiments.engine`; see their docstrings for the
``plan``/``reduce`` split and the result cache.
"""

from repro.experiments import (
    abl_compression,
    ablations,
    ext_hybrid,
    ext_scheduling,
    ext_vrt,
    fig04,
    fig05,
    fig06,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    sram_overhead,
    tab01,
)
from repro.experiments.engine import Experiment, Runner, SimJob
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSettings,
    simulate_benchmark,
)
from repro.scenarios.executor import as_experiment

SCENARIOS = {
    spec.scenario_id: spec
    for spec in (
        fig04.SPEC,
        tab01.SPEC,
        fig05.SPEC,
        fig06.SPEC,
        fig14.SPEC,
        fig15.SPEC,
        fig16.SPEC,
        fig17.SPEC,
        fig18.SPEC,
        fig19.SPEC,
        sram_overhead.SPEC,
        ablations.STAGES_SPEC,
        ablations.CELLTYPE_SPEC,
        ablations.WORDSIZE_SPEC,
        ablations.TRACKING_SPEC,
        ablations.POLICY_SPEC,
        ext_hybrid.SPEC,
        abl_compression.SPEC,
        ext_vrt.SPEC,
        ext_scheduling.SPEC,
    )
}
"""Every registered scenario spec, by id, in the paper's presentation
order.  The specs are pure data — serialize one with ``to_json()``,
tweak it, and run it through ``repro sweep`` or ``repro.api.run``."""

REGISTRY = {
    scenario_id: as_experiment(spec)
    for scenario_id, spec in SCENARIOS.items()
}
"""Every experiment, by id.  Values are callable (``REGISTRY[id](settings)``
runs serially without caching); engine-aware callers hand them to a
:class:`~repro.experiments.engine.Runner` or use :mod:`repro.api`."""

__all__ = [
    "Experiment",
    "ExperimentResult",
    "ExperimentSettings",
    "REGISTRY",
    "Runner",
    "SCENARIOS",
    "SimJob",
    "simulate_benchmark",
]
