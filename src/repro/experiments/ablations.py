"""Ablation studies for the design choices DESIGN.md calls out.

* ``abl-stages`` — contribution of each pipeline stage: raw values
  only, +EBDI, +bit-plane, +rotation/cell-type (the full design).
* ``abl-celltype`` — cost of imperfect true/anti identification
  (the paper argues accuracy need not be 100 %: mispredictions only
  forfeit skip opportunity).
* ``abl-wordsize`` — EBDI word size 4 B vs the paper's 8 B.
* ``abl-tracking`` — skip behaviour of the naive per-write tracker
  vs the access-bit protocol (they must agree on steady-state skips;
  their cost difference is the sram experiment).
* ``abl-policy`` — per-bank vs all-bank AR refresh policy.

Each ablation is a variants × benchmarks grid declared as a
:class:`ScenarioSpec` whose outer ``overrides`` axis enumerates the
variant's dotted config overrides; the generic executor expands it row
major, exactly like the hand-written plans it replaced.
"""

from __future__ import annotations

from dataclasses import fields

from repro.scenarios.spec import ScenarioSpec, SweepAxis
from repro.transform.codec import StageSelection

ABLATION_BENCHMARKS = ("gemsFDTD", "mcf", "bzip2", "omnetpp")

STAGE_VARIANTS = (
    ("raw values", StageSelection.none(), False),
    ("+EBDI", StageSelection(ebdi=True, bitplane=False, rotation=False,
                             celltype_aware=True), False),
    ("+bit-plane", StageSelection(ebdi=True, bitplane=True, rotation=False,
                                  celltype_aware=True), False),
    ("+rotation (full)", StageSelection.full(), True),
)

CELLTYPE_ERROR_RATES = (0.0, 0.05, 0.25, 0.5)

WORD_SIZES = (8, 4)

POLICIES = ("per-bank", "all-bank")

TRACKER_MODES = (("zero-refresh", "access bits + DRAM table"),
                 ("naive", "naive per-write SRAM"))

BENCHMARK_AXIS = SweepAxis(
    "benchmark", source="repro.experiments.ablations:ablation_benchmarks"
)


def ablation_benchmarks(settings):
    """The grid's benchmark columns: the fixed four, pruned to the suite."""
    return [b for b in ABLATION_BENCHMARKS if b in settings.benchmarks] or list(
        settings.benchmarks[:2]
    )


def _stage_overrides(stages: StageSelection, staggered: bool) -> dict:
    """A stage variant as dotted overrides, every flag explicit."""
    dotted = {f"stages.{f.name}": getattr(stages, f.name)
              for f in fields(StageSelection)}
    dotted["staggered_counters"] = staggered
    return dotted


# ----------------------------------------------------------------------
STAGES_SPEC = ScenarioSpec(
    scenario_id="abl-stages",
    description="Pipeline-stage contribution to refresh reduction",
    axes=(
        SweepAxis("overrides", values=[_stage_overrides(stages, staggered)
                                       for _, stages, staggered
                                       in STAGE_VARIANTS]),
        BENCHMARK_AXIS,
    ),
    reduction="variant_grid",
    reduction_params={
        "title": "Pipeline-stage contribution (normalized refresh, "
                 "100% alloc)",
        "labels": [label for label, _, _ in STAGE_VARIANTS],
        "metric": "normalized_refresh",
        "first_header": "variant",
        "notes": "each stage must not hurt; rotation unlocks word-granular "
                 "groups",
    },
)

CELLTYPE_SPEC = ScenarioSpec(
    scenario_id="abl-celltype",
    description="Cell-type misprediction cost across error rates",
    axes=(
        SweepAxis("celltype_error_rate", values=list(CELLTYPE_ERROR_RATES)),
        BENCHMARK_AXIS,
    ),
    reduction="variant_grid",
    reduction_params={
        "title": "Cell-type misprediction cost (normalized refresh)",
        "labels": [f"error={rate:.0%}" for rate in CELLTYPE_ERROR_RATES],
        "metric": "normalized_refresh",
        "first_header": "identification",
        "notes": "reduction degrades gracefully; correctness never depends "
                 "on it",
    },
)

WORDSIZE_SPEC = ScenarioSpec(
    scenario_id="abl-wordsize",
    description="EBDI word size: 8 B (paper) vs 4 B",
    axes=(
        SweepAxis("word_bytes", values=list(WORD_SIZES)),
        BENCHMARK_AXIS,
    ),
    reduction="variant_grid",
    reduction_params={
        "title": "EBDI word size (normalized refresh, 100% alloc)",
        "labels": [f"{wb} B words" for wb in WORD_SIZES],
        "metric": "normalized_refresh",
        "first_header": "variant",
        "notes": "the paper fixes 8 B words; 4 B trades base overhead for "
                 "narrower deltas",
    },
)

POLICY_SPEC = ScenarioSpec(
    scenario_id="abl-policy",
    description="Refresh policy: per-bank vs all-bank AR",
    axes=(
        SweepAxis("refresh_policy", values=list(POLICIES)),
        BENCHMARK_AXIS,
    ),
    reduction="repro.experiments.ablations:reduce_policy",
)

TRACKING_SPEC = ScenarioSpec(
    scenario_id="abl-tracking",
    description="Tracking design: access-bit protocol vs naive tracker",
    axes=(
        SweepAxis("refresh_mode", values=[mode for mode, _ in TRACKER_MODES]),
        BENCHMARK_AXIS,
    ),
    reduction="variant_grid",
    reduction_params={
        "title": "Tracking design (normalized refresh, 100% alloc)",
        "labels": [label for _, label in TRACKER_MODES],
        "metric": "normalized_refresh",
        "first_header": "tracker",
        "notes": "the optimised design pays only the dirty-set transient vs "
                 "the naive tracker; its SRAM is 128x smaller (see 'sram')",
    },
)


def reduce_policy(spec, settings, axes, results):
    """Both policies skip the same refreshes (same energy), but an
    all-bank command blocks the rank until its slowest bank finishes,
    so the recovered *bandwidth* — and hence the IPC gain — shrinks.
    """
    from repro.experiments.runner import ExperimentResult

    names = axes["benchmark"]
    it = iter(results)
    rows = []
    for policy in axes["refresh_policy"]:
        variant = [next(it) for _ in names]
        rows.append([f"{policy} refresh"]
                    + [r.normalized_refresh for r in variant])
        rows.append([f"{policy} IPC"]
                    + [r.ipc.normalized_ipc for r in variant])
    return ExperimentResult(
        experiment_id=spec.scenario_id,
        title="Refresh policy: per-bank vs all-bank AR",
        headers=["metric"] + names,
        rows=rows,
        notes="identical skip counts; all-bank recovers less bank time "
              "(rank blocked by its slowest bank)",
    )
