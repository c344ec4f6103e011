"""The blessed public interface for running paper experiments.

One entry path instead of three: ``python -m repro.experiments``,
``run_experiments.py``, the examples and the serving daemon all
describe a run the same way, with a :class:`RunRequest` (the daemon's
parser builds one straight from the HTTP body), and assemble runners
with the one recipe, :func:`make_runner`:

    >>> import repro.api as api
    >>> api.list_experiments()[:3]
    ['fig04', 'tab01', 'fig05']
    >>> result = api.run(api.RunRequest(
    ...     "fig17", settings=api.quick_settings(), jobs=4))
    >>> print(result.render())          # or result.to_json(), .to_csv()

Execution goes through the parallel, cache-aware, fault-tolerant
engine (:mod:`repro.experiments.engine`): work fans out over ``jobs``
worker processes, every simulation point is memoised in a
content-addressed on-disk cache, and every run records its progress
in its run's span store, so a killed run is finished by issuing the
same request again: its finished jobs are cache hits.

Pass ``cache=False`` to force fresh simulation, or a ``cache_dir`` to
relocate the store (default: ``$REPRO_CACHE_DIR`` or ``.repro-cache``).
Retry/timeout policy, fault injection for chaos tests and the run id
are all fields on :class:`RunRequest` — see
:mod:`repro.experiments.lifecycle` for the field-by-field contract.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.experiments import REGISTRY, SCENARIOS
from repro.experiments.engine import RetryPolicy, Runner
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.lifecycle import (
    RunRequest,
    execute,
    get_experiment,
    make_runner,
)
from repro.experiments.runner import ExperimentResult, ExperimentSettings
from repro.scenarios.executor import adhoc_sweep_spec
from repro.scenarios.spec import ScenarioSpec, SweepAxis, spec_digest

__all__ = [
    "ExperimentResult",
    "ExperimentSettings",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "RunRequest",
    "Runner",
    "ScenarioSpec",
    "SweepAxis",
    "adhoc_sweep_spec",
    "default_settings",
    "fsck_store",
    "gc_store",
    "get_experiment",
    "get_scenario",
    "inspect_run",
    "list_experiments",
    "list_scenarios",
    "make_runner",
    "make_server",
    "quick_settings",
    "run",
    "settings_from_dict",
    "spec_digest",
    "version",
]


def version() -> str:
    """The package version, from installed metadata when available.

    Falls back to ``repro.__version__`` for source-tree runs
    (``PYTHONPATH=src``) where no distribution metadata exists.
    """
    try:
        from importlib.metadata import version as metadata_version

        return metadata_version("repro")
    except Exception:
        import repro

        return getattr(repro, "__version__", "unknown")


def settings_from_dict(overrides=None, quick: bool = False) -> ExperimentSettings:
    """Build :class:`ExperimentSettings` from a JSON-decoded mapping.

    The wire form used by the serving layer's experiment endpoint;
    see :meth:`ExperimentSettings.from_dict` for the accepted keys.
    """
    return ExperimentSettings.from_dict(overrides, quick=quick)


def make_server(config=None, **overrides):
    """A configured :class:`repro.serve.ReproServer` (not yet started).

    ``overrides`` are :class:`repro.serve.ServeConfig` fields; pass a
    ready config instead to reuse one.  Imported lazily so plain
    experiment runs never pay for the serving stack.
    """
    from repro.serve import ReproServer, ServeConfig

    if config is None:
        config = ServeConfig(**overrides)
    elif overrides:
        raise ValueError("give a ServeConfig or field overrides, not both")
    return ReproServer(config)


def list_experiments() -> List[str]:
    """Every runnable experiment id, in paper order."""
    return list(REGISTRY)


def list_scenarios() -> Dict[str, str]:
    """Registered scenario ids mapped to their one-line descriptions."""
    return {scenario_id: spec.description
            for scenario_id, spec in SCENARIOS.items()}


def get_scenario(scenario_id: str) -> ScenarioSpec:
    """The :class:`ScenarioSpec` registered under ``scenario_id``.

    Specs are pure data: serialize with ``to_json()``, tweak the dict,
    rebuild with ``ScenarioSpec.from_dict`` and run the variant via
    ``run(RunRequest(spec=...))``.
    """
    try:
        return SCENARIOS[scenario_id]
    except KeyError:
        known = ", ".join(SCENARIOS)
        raise KeyError(
            f"unknown scenario {scenario_id!r}; known ids: {known}"
        ) from None


def default_settings(**overrides) -> ExperimentSettings:
    """Paper-scale settings (32 MB stand-in, 8 windows, full suite)."""
    return ExperimentSettings(**overrides)


def quick_settings(**overrides) -> ExperimentSettings:
    """CI/bench scale (16 MB, 2 windows, 9 benchmarks)."""
    return ExperimentSettings.quick(**overrides)


def fsck_store(cache_dir: Optional[os.PathLike] = None, *,
               repair: bool = False) -> dict:
    """Verify every durable artifact under the cache dir.

    Walks cache entries, run (span) stores and the serve-inflight
    snapshot, classifying damage (``truncated`` / ``bit_flipped`` /
    ``wrong_schema`` / ``orphan_tmp``).  With ``repair=True`` damaged
    files are quarantined to ``<cache>/lost+found/`` (run stores are
    rewritten to just their verified lines) so the
    next run regenerates what was lost.  Returns the report dict the
    ``repro fsck`` CLI prints; ``report["ok"]`` is ``False`` while
    unrepaired damage remains.
    """
    from repro.experiments.cache import default_cache_dir
    from repro.store.fsck import fsck

    root = cache_dir if cache_dir is not None else default_cache_dir()
    return fsck(root, repair=repair)


def gc_store(cache_dir: Optional[os.PathLike] = None, *,
             max_bytes: Optional[int] = None,
             max_age_s: Optional[float] = None,
             keep_runs: Optional[int] = None,
             dry_run: bool = False) -> dict:
    """Apply a retention policy to the durable store.

    Prunes cache entries (by age, then oldest-first to ``max_bytes``),
    run (span) stores (by age and ``keep_runs``), and stale
    lock files — never touching state referenced by an in-progress
    run's advisory lock.  Returns the sweep report dict the
    ``repro gc`` CLI prints.
    """
    from repro.experiments.cache import default_cache_dir
    from repro.store.gc import GCPolicy, collect

    root = cache_dir if cache_dir is not None else default_cache_dir()
    policy = GCPolicy(max_bytes=max_bytes, max_age_s=max_age_s,
                      keep_runs=keep_runs)
    return collect(root, policy, dry_run=dry_run)


def inspect_run(run_id: str,
                cache_dir: Optional[os.PathLike] = None) -> dict:
    """Everything recorded about one run, as a JSON-able document.

    Joins the run's span store and cached per-job metrics into the
    ``repro inspect`` document (state, job counts, cache hit
    ratio, per-phase breakdown, retries, slowest jobs, critical path,
    timeline).  ``run_id`` is the id printed on stderr after
    every cached run (also in ``--json`` output and the serving
    layer's ``X-Repro-Run-Id`` header).  Raises
    :class:`repro.obs.inspect.UnknownRunError` for ids with no span
    store.
    """
    from repro.experiments.cache import default_cache_dir
    from repro.obs.inspect import inspect_run as _inspect

    root = cache_dir if cache_dir is not None else default_cache_dir()
    return _inspect(root, run_id)


def run(request: RunRequest, *, runner: Optional[Runner] = None) -> ExperimentResult:
    """Run one experiment described by a :class:`RunRequest`.

    The blessed entry point.  Pass a shared ``runner`` to reuse one
    cache/manifest across several requests.
    """
    return execute(request, runner=runner)

