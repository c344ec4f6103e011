"""Declarative scenario layer: experiments as data-driven sweep specs.

Every registered experiment is a :class:`ScenarioSpec` — sweep axes, a
point function, dotted overrides and a named reduction — expanded by
one generic executor into the engine's job grid.  Ad-hoc sweeps build
the same spec shape (:func:`adhoc_sweep_spec`) and run through the
identical cache and run-store machinery.

``SCENARIOS`` (the registered spec catalog, keyed and ordered like the
experiment registry) lives in :mod:`repro.experiments` and is
re-exported lazily here to keep this package import-light and
cycle-free.
"""

from repro.scenarios.executor import (
    Expansion,
    adhoc_sweep_spec,
    as_experiment,
    expand,
    resolve_axes,
)
from repro.scenarios.points import SIMULATE_SETTINGS_POINT, simulate_point
from repro.scenarios.reductions import REDUCTIONS, resolve_reduction
from repro.scenarios.resolve import (
    apply_settings,
    config_for,
    known_override_keys,
    parse_value,
    split_overrides,
)
from repro.scenarios.spec import (
    ScenarioError,
    ScenarioSpec,
    SweepAxis,
    spec_digest,
)

__all__ = [
    "Expansion",
    "REDUCTIONS",
    "SCENARIOS",
    "SIMULATE_SETTINGS_POINT",
    "ScenarioError",
    "ScenarioSpec",
    "SweepAxis",
    "adhoc_sweep_spec",
    "apply_settings",
    "as_experiment",
    "config_for",
    "expand",
    "known_override_keys",
    "parse_value",
    "resolve_axes",
    "resolve_reduction",
    "simulate_point",
    "spec_digest",
    "split_overrides",
]


def __getattr__(name):
    if name == "SCENARIOS":
        from repro.experiments import SCENARIOS

        return SCENARIOS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
