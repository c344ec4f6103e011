"""Dotted-override resolution: spec keys -> settings/config objects.

One blessed path from wire-form override keys (``temperature``,
``memory_mb``, ``row_bytes``, ``stages.rotation`` ...) to the typed
objects the simulator consumes: :class:`ExperimentSettings` fields on
one side, :meth:`SystemConfig.scaled` keyword overrides (including a
materialised :class:`StageSelection`) on the other.  The CLI's
``--set``/``--axis``, scenario spec overrides and the serve daemon's
sweep bodies all resolve here, so an unknown or ill-typed key fails
identically everywhere, listing what would have been accepted.

:func:`config_for` is the one blessed ``SystemConfig`` construction
for custom point functions (fig19's and ext-hybrid's capacity sweeps
route through it instead of hand-rolling ``SystemConfig.scaled``).
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Dict, Optional, Tuple

from repro.dram.timing import TemperatureMode
from repro.osmodel.pages import CleansePolicy
from repro.scenarios.spec import ScenarioError
from repro.transform.codec import StageSelection
from repro.workloads.benchmarks import BENCHMARK_NAMES

__all__ = [
    "CONFIG_KEYS",
    "SETTINGS_KEYS",
    "STAGE_KEYS",
    "apply_settings",
    "check_benchmark",
    "config_for",
    "known_override_keys",
    "materialize_config",
    "parse_value",
    "split_overrides",
]

SETTINGS_KEYS = (
    "memory_bytes", "memory_mb", "windows", "benchmarks", "temperature",
    "rows_per_ar", "seed",
)
"""Override keys that rebind :class:`ExperimentSettings` fields."""

CONFIG_KEYS = (
    "refresh_mode", "refresh_policy", "staggered_counters",
    "celltype_error_rate", "cleanse_policy", "num_cores",
    "row_bytes", "cell_interleave", "word_bytes", "line_bytes",
)
"""Override keys that pass through to :meth:`SystemConfig.scaled`."""

STAGE_KEYS = tuple(f.name for f in fields(StageSelection))
"""The ``stages.<flag>`` leaves (ebdi, bitplane, rotation, ...)."""


def known_override_keys() -> Tuple[str, ...]:
    """Every accepted override key, for error messages and docs."""
    return tuple(sorted(SETTINGS_KEYS + CONFIG_KEYS
                        + tuple(f"stages.{k}" for k in STAGE_KEYS)))


def split_overrides(mapping) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Split dotted overrides into (settings-level, config-level) maps.

    ``stages.<flag>`` leaves collect under a ``"stages"`` sub-mapping of
    the config side; unknown keys raise :class:`ScenarioError` listing
    everything that would have been accepted.
    """
    settings_map: Dict[str, object] = {}
    config_map: Dict[str, object] = {}
    for key, value in dict(mapping or {}).items():
        root, _, leaf = str(key).partition(".")
        if root == "stages":
            if leaf not in STAGE_KEYS:
                raise ScenarioError(
                    f"unknown stage flag {key!r}; stage keys: "
                    + ", ".join(f"stages.{k}" for k in STAGE_KEYS)
                )
            if not isinstance(value, bool):
                raise ScenarioError(
                    f"{key} must be a boolean, got {value!r}"
                )
            config_map.setdefault("stages", {})[leaf] = value
        elif key in SETTINGS_KEYS:
            settings_map[key] = value
        elif key in CONFIG_KEYS:
            config_map[key] = value
        else:
            raise ScenarioError(
                f"unknown override key {key!r}; known keys: "
                + ", ".join(known_override_keys())
            )
    return settings_map, config_map


def check_benchmark(name: str) -> None:
    """Raise :class:`ScenarioError` unless ``name`` is a known benchmark."""
    if name not in BENCHMARK_NAMES:
        raise ScenarioError(
            f"unknown benchmark {name!r}; known: {', '.join(BENCHMARK_NAMES)}"
        )


def apply_settings(settings, settings_map):
    """``settings`` with a wire-form override mapping applied.

    Accepts the :class:`ExperimentSettings` field names plus
    ``memory_mb``; ``temperature`` resolves through
    :meth:`TemperatureMode.parse` (a bad name raises ``ValueError``
    listing the valid mode names), ``benchmarks`` coerces to a string
    tuple of known benchmark names.  A malformed value of a known
    field (``windows: 0``, ``seed: null``, a geometry
    :class:`SystemConfig` rejects) raises :class:`ScenarioError` naming
    the field.  Returns ``settings`` untouched for an empty mapping.
    """
    data = dict(settings_map or {})
    if not data:
        return settings
    if "memory_mb" in data:
        if "memory_bytes" in data:
            raise ScenarioError("give memory_mb or memory_bytes, not both")
        memory_mb = data.pop("memory_mb")
        if isinstance(memory_mb, bool) or not isinstance(memory_mb, int):
            raise ScenarioError(
                f"memory_mb must be an int, got {memory_mb!r}")
        data["memory_bytes"] = memory_mb << 20
    if "benchmarks" in data:
        benchmarks = data["benchmarks"]
        if isinstance(benchmarks, str):
            benchmarks = [benchmarks]
        if not isinstance(benchmarks, (list, tuple)):
            raise ScenarioError(
                f"benchmarks must be a list of names, got {benchmarks!r}")
        data["benchmarks"] = tuple(str(b) for b in benchmarks)
        for name in data["benchmarks"]:
            check_benchmark(name)
    if "temperature" in data:
        data["temperature"] = TemperatureMode.parse(data["temperature"])
    field_names = {f.name for f in fields(settings)}
    unknown = sorted(set(data) - field_names)
    if unknown:
        raise ScenarioError(
            f"unknown settings field(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(field_names))}"
        )
    try:
        return replace(settings, **data)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _parse_cleanse_policy(value) -> CleansePolicy:
    if isinstance(value, CleansePolicy):
        return value
    try:
        return CleansePolicy(str(value))
    except ValueError:
        pass
    try:
        return CleansePolicy[str(value).upper().replace("-", "_")]
    except KeyError:
        known = ", ".join(p.value for p in CleansePolicy)
        raise ScenarioError(
            f"unknown cleanse_policy {value!r}; one of: {known}"
        ) from None


def materialize_config(config_map) -> Optional[Dict[str, object]]:
    """Typed ``SystemConfig.scaled`` overrides from a config-level map.

    A ``"stages"`` sub-mapping materialises into a
    :class:`StageSelection` (flags not named keep their all-on
    defaults, so ``{"stages": {}}`` is the full pipeline);
    ``cleanse_policy`` strings resolve to the enum.  Returns ``None``
    for an empty map so expanded jobs stay identical to hand-written
    ones that passed ``config_overrides=None``.
    """
    data = dict(config_map or {})
    if not data:
        return None
    if "stages" in data:
        stage_map = data["stages"]
        if isinstance(stage_map, StageSelection):
            pass
        elif isinstance(stage_map, dict):
            data["stages"] = StageSelection(**stage_map)
        else:
            raise ScenarioError(
                f"stages must be a mapping of flags, got {stage_map!r}"
            )
    if "cleanse_policy" in data:
        data["cleanse_policy"] = _parse_cleanse_policy(data["cleanse_policy"])
    return data


def config_for(settings, memory_bytes: Optional[int] = None,
               **config_overrides):
    """The blessed :class:`SystemConfig` for a point function.

    Equivalent to ``settings.config(**config_overrides)`` — geometry
    scaled to ``settings.memory_bytes`` (or an explicit
    ``memory_bytes``), the settings' temperature/seed/rows_per_ar
    threaded through — so capacity-sweep points stop copy-pasting
    ``SystemConfig.scaled(...)`` argument lists.
    """
    if memory_bytes is not None:
        settings = replace(settings, memory_bytes=int(memory_bytes))
    return settings.config(**config_overrides)


def parse_value(text: str):
    """A CLI token as a JSON-ish scalar: bool, int, float or string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("null", "none"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip()
