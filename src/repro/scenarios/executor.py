"""The generic sweep executor: specs -> engine jobs -> result tables.

:func:`expand` turns a :class:`ScenarioSpec` into the row-major grid of
:class:`~repro.experiments.engine.SimJob` the engine already knows how
to fan out, cache and record; :func:`as_experiment` wraps the
expansion as a plan/reduce :class:`~repro.experiments.engine.Experiment`
so a spec plugs into every existing entry point (registry, CLI, serve
daemon, :func:`repro.api.run`) unchanged.

Axis binding rules (by :class:`SweepAxis` name):

``benchmark``
    Binds ``job.benchmark``; ``seed_offset`` is the value's index on
    the axis, matching the engine's per-benchmark seed staggering.
    Defaults its values to ``settings.benchmarks``.
``allocated_fraction``
    Binds the job field directly.
``overrides``
    Each value is a mapping of dotted overrides applied to that cell.
``params.<key>``
    Binds a parameter of a custom point function.  A ``benchmark``
    parameter, bound here or in ``point_params``, must name a known
    benchmark profile.
anything else
    A dotted settings/config override key, resolved through
    :mod:`repro.scenarios.resolve`.  Config-level keys materialise as
    ``job.config_overrides``; settings-level keys reroute the cell
    through :data:`~repro.scenarios.points.SIMULATE_SETTINGS_POINT`
    with the wire mapping in ``job.params["settings"]``.

Engine imports stay inside functions: the experiment modules that
define specs import this package while :mod:`repro.experiments` is
still initialising.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List

from repro.scenarios.resolve import (
    apply_settings,
    check_benchmark,
    materialize_config,
    split_overrides,
)
from repro.scenarios.spec import (
    SIMULATE_POINT,
    ScenarioError,
    ScenarioSpec,
    SweepAxis,
)

__all__ = [
    "Expansion",
    "adhoc_sweep_spec",
    "as_experiment",
    "expand",
    "resolve_axes",
]

BENCHMARKS_SOURCE = "settings.benchmarks"
"""Axis source drawing its values from the run's settings."""


def _axis_values(axis: SweepAxis, settings) -> list:
    values = axis.value_list
    if values:
        return values
    source = axis.source
    if not source and axis.name == "benchmark":
        source = BENCHMARKS_SOURCE
    if source == BENCHMARKS_SOURCE:
        return list(settings.benchmarks)
    if ":" in source:
        from repro.experiments.engine import resolve_job_fn

        return list(resolve_job_fn(source)(settings))
    raise ScenarioError(
        f"axis {axis.name!r} has no values and no resolvable source "
        f"(give values, {BENCHMARKS_SOURCE!r} or an importable "
        f"'module:attr')"
    )


def resolve_axes(spec: ScenarioSpec, settings) -> Dict[str, list]:
    """The spec's axes as an ordered ``{name: concrete values}`` map."""
    axes: Dict[str, list] = {}
    for axis in spec.axes:
        values = _axis_values(axis, settings)
        if not values:
            raise ScenarioError(f"axis {axis.name!r} resolved to no values")
        axes[axis.name] = values
    return axes


@dataclass
class Expansion:
    """A spec resolved against settings: the grid and its jobs."""

    axes: Dict[str, list]
    jobs: List


def _cell_job(spec: ScenarioSpec, settings, axes: Dict[str, list],
              combo: tuple):
    """The engine job for one grid cell (one axis-value combination)."""
    from repro.experiments.engine import SimJob
    from repro.scenarios.points import SIMULATE_SETTINGS_POINT

    cell_overrides = spec.overrides_dict
    axis_params: Dict[str, object] = {}
    benchmark = None
    seed_offset = 0
    allocated_fraction = 1.0
    for (name, values), value in zip(axes.items(), combo):
        if name == "benchmark":
            benchmark = str(value)
            seed_offset = values.index(value)
        elif name == "allocated_fraction":
            allocated_fraction = float(value)
        elif name == "overrides":
            if not isinstance(value, dict):
                raise ScenarioError(
                    f"'overrides' axis values must be mappings, got {value!r}"
                )
            cell_overrides.update(value)
        elif name.startswith("params."):
            axis_params[name[len("params."):]] = value
        else:
            cell_overrides[name] = value

    if spec.point != SIMULATE_POINT:
        if cell_overrides:
            raise ScenarioError(
                f"custom point {spec.point!r} cannot take settings/config "
                f"overrides (got {sorted(cell_overrides)}); bind them as "
                f"'params.*' axes or point_params instead"
            )
        params = dict(spec.point_params_dict)
        params.update(axis_params)
        if "benchmark" in params:
            check_benchmark(str(params["benchmark"]))
        return SimJob(
            benchmark=str(params.get("benchmark") or spec.scenario_id),
            allocated_fraction=allocated_fraction,
            fn=spec.point,
            params=params or None,
        )

    if axis_params or spec.point_params_dict:
        raise ScenarioError(
            "point parameters only apply to custom points; the default "
            "'simulate' point takes benchmark/allocation/override axes"
        )
    if benchmark is None:
        raise ScenarioError(
            "the 'simulate' point needs a 'benchmark' axis"
        )
    check_benchmark(benchmark)
    allocated_fraction = cell_overrides.pop(
        "allocated_fraction", allocated_fraction
    )
    settings_map, config_map = split_overrides(cell_overrides)
    config_overrides = materialize_config(config_map)
    if settings_map:
        # parse the values here, not only in the worker: a bad value
        # then fails the request instead of every attempt of the job
        apply_settings(settings, settings_map)
        return SimJob(
            benchmark=benchmark,
            allocated_fraction=float(allocated_fraction),
            config_overrides=config_overrides,
            seed_offset=seed_offset,
            fn=SIMULATE_SETTINGS_POINT,
            params={"settings": settings_map},
        )
    return SimJob(
        benchmark=benchmark,
        allocated_fraction=float(allocated_fraction),
        config_overrides=config_overrides,
        seed_offset=seed_offset,
    )


def expand(spec: ScenarioSpec, settings=None) -> Expansion:
    """Resolve a spec against settings into its full job grid.

    Cells enumerate row-major (first axis outermost); a spec with no
    axes is a single point.  Raises :class:`ScenarioError` for any
    binding that cannot be resolved, which is what lets entry points
    validate a user spec eagerly before scheduling anything.
    """
    if settings is None:
        from repro.experiments.runner import ExperimentSettings

        settings = ExperimentSettings()
    axes = resolve_axes(spec, settings)
    jobs = [
        _cell_job(spec, settings, axes, combo)
        for combo in itertools.product(*axes.values())
    ]
    return Expansion(axes=axes, jobs=jobs)


def as_experiment(spec: ScenarioSpec):
    """The spec as an engine :class:`Experiment` (plan + reduce)."""
    from repro.experiments.engine import Experiment
    from repro.scenarios.reductions import resolve_reduction

    def plan(settings):
        return expand(spec, settings).jobs

    def reduce(settings, results):
        axes = resolve_axes(spec, settings)
        return resolve_reduction(spec.reduction)(spec, settings, axes, results)

    return Experiment(spec.scenario_id, plan=plan, reduce=reduce)


def adhoc_sweep_spec(
    axes: Dict[str, list],
    overrides=None,
    benchmarks=None,
    metrics=None,
    description: str = "",
) -> ScenarioSpec:
    """An unregistered sweep spec from user axes and overrides.

    ``axes`` maps axis names to value lists (CLI ``--axis``, sweep
    request bodies).  A ``benchmark`` axis is appended innermost unless
    the user supplied one — either ``benchmarks`` or the run settings'
    suite — so every override combination sweeps the benchmarks.  The
    scenario id embeds the spec's own digest, making identical ad-hoc
    sweeps identical cache/run-store/single-flight citizens.
    """
    axis_list = [
        SweepAxis(name=str(name), values=list(values))
        for name, values in dict(axes or {}).items()
    ]
    names = [axis.name for axis in axis_list]
    if len(set(names)) != len(names):
        raise ScenarioError(f"duplicate axis names: {names}")
    if "benchmark" in names:
        if benchmarks:
            raise ScenarioError(
                "give a 'benchmark' axis or a benchmarks list, not both"
            )
    elif benchmarks:
        axis_list.append(SweepAxis(
            "benchmark", values=[str(b) for b in benchmarks]
        ))
    else:
        axis_list.append(SweepAxis("benchmark", source=BENCHMARKS_SOURCE))
    reduction_params = {"metrics": list(metrics)} if metrics else ()
    base = ScenarioSpec(
        scenario_id="sweep",
        description=description or "ad-hoc sweep",
        axes=tuple(axis_list),
        overrides=dict(overrides or {}),
        reduction="sweep_table",
        reduction_params=reduction_params,
    )
    from repro.scenarios.spec import spec_digest

    return replace(base, scenario_id=f"sweep-{spec_digest(base)[:12]}")
