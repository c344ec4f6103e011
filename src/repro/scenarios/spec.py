"""Frozen, JSON-serializable scenario descriptions.

A :class:`ScenarioSpec` is the declarative form of an experiment: the
sweep axes (benchmark, allocation, any settings/config override, or a
parameter of a custom point function), the point function that turns
one grid cell into a simulation, static dotted overrides applied to
every cell, and the named reduction that lays the grid back out as an
:class:`~repro.experiments.runner.ExperimentResult` table.

Specs are *pure data*: every field is a JSON scalar or a frozen
container of them, so a spec round-trips losslessly through
``to_json``/``from_json`` (``spec → to_json → from_json → to_json`` is
a fixed point) and :func:`spec_digest` is stable across processes,
machines and restarts — which is what lets the engine cache, resume
and single-flight machinery treat an ad-hoc user sweep exactly like a
registered figure.

Nothing in this module imports from :mod:`repro.experiments`; the
expansion into engine jobs lives in :mod:`repro.scenarios.executor`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Dict, List, Tuple

__all__ = [
    "ScenarioError",
    "ScenarioSpec",
    "SweepAxis",
    "spec_digest",
]

SIMULATE_POINT = "simulate"
"""The default point: one full-system benchmark simulation per cell."""


class ScenarioError(ValueError):
    """A spec that cannot be validated, frozen or expanded."""


# ----------------------------------------------------------------------
# freeze / thaw: JSON values <-> hashable tuples
# ----------------------------------------------------------------------
# Frozen dataclasses need hashable fields, JSON needs dicts and lists;
# the bridge is a tagged-tuple encoding ("m" for mappings, "s" for
# sequences) that is unambiguous because JSON input never contains
# tuples.  Mapping insertion order is preserved — it is part of the
# data (e.g. the display order of a table's paper-reference entries).
def _freeze(value):
    if isinstance(value, dict):
        return ("m", tuple((str(k), _freeze(v))
                           for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return ("s", tuple(_freeze(v) for v in value))
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ScenarioError(
        f"spec values must be JSON-plain (str/int/float/bool/None/"
        f"list/dict), got {type(value).__name__}: {value!r}"
    )


def _thaw(value):
    if isinstance(value, tuple):
        tag, payload = value
        if tag == "m":
            return {key: _thaw(item) for key, item in payload}
        return [_thaw(item) for item in payload]
    return value


def _is_frozen(value, tag: str) -> bool:
    return (isinstance(value, tuple) and len(value) == 2
            and value[0] == tag and isinstance(value[1], tuple))


def _freeze_seq(value):
    """Freeze a sequence of values, idempotently."""
    if _is_frozen(value, "s"):
        return value
    if isinstance(value, (list, tuple)):
        return _freeze(list(value))
    raise ScenarioError(f"expected a sequence, got {value!r}")


def _freeze_map(value):
    """Freeze a mapping, idempotently; ``()`` means empty."""
    if value == () or value is None:
        return ("m", ())
    if _is_frozen(value, "m"):
        return value
    if isinstance(value, dict):
        return _freeze(value)
    raise ScenarioError(f"expected a mapping, got {value!r}")


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepAxis:
    """One dimension of a scenario's grid.

    ``name`` decides how each value binds to a job (see
    :mod:`repro.scenarios.executor`): ``benchmark``,
    ``allocated_fraction``, ``params.<key>`` for custom point
    parameters, ``overrides`` for per-cell mappings of dotted
    overrides, or any dotted settings/config override key
    (``temperature``, ``memory_mb``, ``row_bytes``,
    ``stages.rotation`` ...).

    ``values`` enumerates the axis; an empty ``values`` defers to
    ``source`` — ``"settings.benchmarks"`` (the default for a
    benchmark axis) or any importable ``"module:attr"`` callable
    taking the run's settings and returning the values.
    """

    name: str
    values: tuple = ()
    source: str = ""

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError(f"axis name must be a non-empty string, "
                                f"got {self.name!r}")
        object.__setattr__(self, "values", _freeze_seq(self.values))

    @property
    def value_list(self) -> list:
        """The axis values as plain JSON values."""
        return _thaw(self.values)

    def to_dict(self) -> dict:
        return {"name": self.name, "values": self.value_list,
                "source": self.source}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepAxis":
        if not isinstance(data, dict):
            raise ScenarioError(f"axis must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - {"name", "values", "source"})
        if unknown:
            raise ScenarioError(
                f"unknown axis field(s): {', '.join(unknown)}"
            )
        return cls(
            name=data.get("name", ""),
            values=data.get("values") or (),
            source=str(data.get("source", "") or ""),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: axes x point x reduction.

    Fields
    ------
    scenario_id:
        Registry/cache identity; also the result's ``experiment_id``.
    description:
        One line for ``repro list`` and the catalog.
    axes:
        The sweep grid, row-major (first axis outermost).  No axes
        means a single point.
    point:
        ``"simulate"`` (the default full-system benchmark simulation)
        or an importable ``"module:attr"`` callable with the engine job
        signature ``fn(settings, job)``.
    point_params:
        Static parameters for a custom point (merged under axis-bound
        ``params.*`` values).
    overrides:
        Static dotted settings/config overrides applied to every cell
        (``{"stages.rotation": false, "memory_mb": 16}``); axis values
        for the same key win.
    reduction:
        A registered reduction name (see
        :mod:`repro.scenarios.reductions`) or an importable
        ``"module:attr"`` callable ``fn(spec, settings, axes, results)``.
    reduction_params:
        Static data the reduction lays the table out with (title,
        headers, labels, paper reference rows ...).
    """

    scenario_id: str
    description: str = ""
    axes: Tuple[SweepAxis, ...] = ()
    point: str = SIMULATE_POINT
    point_params: tuple = ()
    overrides: tuple = ()
    reduction: str = "table"
    reduction_params: tuple = ()

    def __post_init__(self):
        if not self.scenario_id or not isinstance(self.scenario_id, str):
            raise ScenarioError("scenario_id must be a non-empty string")
        axes = tuple(self.axes)
        for axis in axes:
            if not isinstance(axis, SweepAxis):
                raise ScenarioError(f"axes must be SweepAxis, got {axis!r}")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ScenarioError(f"duplicate axis names: {names}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "point_params",
                           _freeze_map(self.point_params))
        object.__setattr__(self, "overrides", _freeze_map(self.overrides))
        object.__setattr__(self, "reduction_params",
                           _freeze_map(self.reduction_params))

    # -- plain-data accessors ------------------------------------------
    @property
    def point_params_dict(self) -> Dict[str, object]:
        return _thaw(self.point_params)

    @property
    def overrides_dict(self) -> Dict[str, object]:
        return _thaw(self.overrides)

    @property
    def reduction_params_dict(self) -> Dict[str, object]:
        return _thaw(self.reduction_params)

    # -- wire form ------------------------------------------------------
    def to_dict(self) -> dict:
        """The spec as a plain JSON-able dict (all fields, always)."""
        return {
            "scenario_id": self.scenario_id,
            "description": self.description,
            "axes": [axis.to_dict() for axis in self.axes],
            "point": self.point,
            "point_params": self.point_params_dict,
            "overrides": self.overrides_dict,
            "reduction": self.reduction,
            "reduction_params": self.reduction_params_dict,
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise ScenarioError(f"spec must be a JSON object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScenarioError(
                f"unknown spec field(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        axes_data = data.get("axes") or []
        if not isinstance(axes_data, (list, tuple)):
            raise ScenarioError("axes must be a JSON array")
        for key in ("scenario_id", "description", "point", "reduction"):
            if key in data and not isinstance(data[key], str):
                raise ScenarioError(f"{key} must be a string")
        return cls(
            scenario_id=data.get("scenario_id", ""),
            description=data.get("description", ""),
            axes=tuple(SweepAxis.from_dict(a) for a in axes_data),
            point=data.get("point", SIMULATE_POINT),
            point_params=data.get("point_params") or (),
            overrides=data.get("overrides") or (),
            reduction=data.get("reduction", "table"),
            reduction_params=data.get("reduction_params") or (),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def axis_names(self) -> List[str]:
        return [axis.name for axis in self.axes]


def spec_digest(spec: ScenarioSpec) -> str:
    """Content digest of a spec, stable across process restarts.

    The wire form with tight separators hashed with SHA-256; two specs
    digest equal iff their wire forms are identical (mapping order is
    part of the data, so it is part of the digest).
    """
    canonical = json.dumps(spec.to_dict(), separators=(",", ":"))
    return hashlib.sha256(
        ("scenario-spec\x1f" + canonical).encode("utf-8")
    ).hexdigest()
