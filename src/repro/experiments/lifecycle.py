"""The unified run lifecycle: one request object, one runner recipe.

Every way to ask for a run — :func:`repro.api.run`, the CLI's flags
and the serving daemon's request parser — builds one
:class:`RunRequest`, so the policy knobs (cache, timeout,
retry, run id, fault injection) and what ``probes`` or ``jobs`` mean
are defined exactly once, here.

The functions below are the whole lifecycle:

:func:`resolve_jobs`
    The one place the ``probes`` → ``jobs=1`` coercion lives (and
    warns when it overrides an explicit ``jobs``).
:func:`make_runner`
    The one place a :class:`~repro.experiments.engine.Runner` is
    assembled from policy knobs (``repro.api`` re-exports it).
:func:`runner_for`
    ``make_runner`` applied to a request.
:func:`get_experiment`
    The one registry lookup (``repro.api`` re-exports it).
:func:`execute`
    Run the request (optionally on a shared runner), installing its
    probe bus and threading its run id through to the run store.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Optional, Union

from repro.experiments.cache import ResultCache
from repro.experiments.engine import Experiment, RetryPolicy, Runner
from repro.experiments.faults import FaultPlan
from repro.experiments.runner import ExperimentResult, ExperimentSettings
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "RunRequest",
    "execute",
    "get_experiment",
    "make_runner",
    "resolve_jobs",
    "runner_for",
]


@dataclass(frozen=True)
class RunRequest:
    """Everything one experiment run needs, in one immutable object.

    This is the blessed entry point for running experiments
    (``repro.api.run(RunRequest(...))``); the engine, the CLI and the
    serving layer all construct runs from it, so retry/timeout policy
    has exactly one definition.

    Fields
    ------
    experiment_id:
        Registered experiment id (see ``repro.api.list_experiments``).
        Exactly one of ``experiment_id`` and ``spec`` must be given.
    spec:
        A :class:`~repro.scenarios.spec.ScenarioSpec` to run instead of
        a registered experiment — the ad-hoc sweep path.  The spec is
        expanded by the generic executor and runs through the same
        cache and run store machinery (its ``scenario_id`` is the
        cache and run identity).
    settings:
        :class:`ExperimentSettings`; ``None`` means paper defaults.
    jobs:
        Worker processes (``None``: all cores).  **Coercion rule:** a
        request carrying ``probes`` runs in-process — the probe bus is
        per-process, so fan-out would bypass live tracing.  ``jobs``
        other than ``None``/``1`` is overridden to ``1`` with a
        :class:`RuntimeWarning` (see :func:`resolve_jobs`).  Per-job
        metric *snapshots* survive fan-out regardless; the coercion
        only affects live streaming.
    cache:
        ``True`` (default location), ``False`` (no caching — also
        disables the on-disk run store), or a ready
        :class:`ResultCache`.
    cache_dir:
        Cache location when ``cache=True`` (default:
        ``$REPRO_CACHE_DIR`` or ``.repro-cache``).
    probes:
        A :class:`repro.obs.ProbeBus` installed for the run's duration.
    watchdog:
        Run every job under an invariant watchdog.
    timeout_s / retry:
        Per-job wall-clock budget and :class:`RetryPolicy` (defaults:
        no timeout; 3 attempts, 2 worker crashes, exponential backoff).
    run_id:
        Override the (otherwise deterministic) run id, which names the
        span store the run records into.  A store of the same plan is
        appended to; its done jobs are cache hits, so issuing a killed
        or partly failed run again finishes it.
    faults:
        A :class:`FaultPlan` for deterministic chaos testing.
    backend:
        Execution backend name — ``"serial"``, ``"pool"`` or
        ``"cluster"`` — or a ready
        :class:`~repro.experiments.backends.ExecutionBackend`.
        ``None`` (default) derives serial/pool from ``jobs``.  A
        cluster run spawns ``workers`` local worker processes (a
        runner from ``make_runner(worker_address=...)`` waits for
        external ``repro worker --connect`` processes instead).
        Everything else on this request — retry, quarantine, faults,
        the run store — behaves identically across backends.
    workers:
        Cluster fleet size (``backend="cluster"`` only; default 2).
    """

    experiment_id: Optional[str] = None
    spec: Optional["ScenarioSpec"] = None
    settings: Optional[ExperimentSettings] = None
    jobs: Optional[int] = None
    cache: Union[bool, ResultCache] = True
    cache_dir: Optional[os.PathLike] = None
    probes: Optional[object] = None
    watchdog: bool = False
    timeout_s: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    run_id: Optional[str] = None
    faults: Optional[FaultPlan] = None
    backend: Optional[object] = None
    workers: Optional[int] = None


def resolve_jobs(jobs: Optional[int], probes) -> Optional[int]:
    """Apply the ``probes`` → in-process coercion, loudly.

    The probe bus is per-process: live tracing through ``probes`` only
    sees jobs executed in-process, so an instrumented run forces
    ``jobs=1``.  When that overrides an explicit ``jobs`` value the
    caller is told via :class:`RuntimeWarning` instead of silently
    getting a serial run.
    """
    if probes is None:
        return jobs
    if jobs not in (None, 1):
        warnings.warn(
            f"probes force in-process execution: overriding jobs={jobs} "
            f"with jobs=1 (drop probes= to fan out; per-job metric "
            f"snapshots are captured either way)",
            RuntimeWarning,
            stacklevel=3,
        )
    return 1


def make_runner(
    jobs: Optional[int] = None,
    cache: Union[bool, ResultCache] = True,
    cache_dir: Optional[os.PathLike] = None,
    watchdog: bool = False,
    *,
    timeout_s: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    backend=None,
    workers: Optional[int] = None,
    worker_address: Optional[str] = None,
) -> Runner:
    """A configured engine :class:`Runner`.

    ``jobs=None`` uses every core; ``cache`` accepts ``True`` (default
    location), ``False`` (no caching) or a ready :class:`ResultCache`.
    ``watchdog=True`` runs every job under an invariant watchdog whose
    findings land in the runner's metrics manifest.  ``backend``
    selects the execution vehicle (``"serial"`` | ``"pool"`` |
    ``"cluster"``; default derives from ``jobs``) — a cluster runner
    spawns ``workers`` local workers or binds ``worker_address`` for
    external ones, and should be released with ``Runner.close()``.
    The remaining knobs mirror :class:`RunRequest`'s lifecycle policy
    fields.
    """
    from repro.experiments.backends import resolve_backend

    if isinstance(cache, ResultCache):
        store = cache
    elif cache:
        store = ResultCache(cache_dir)
    else:
        store = None
    return Runner(
        jobs=jobs,
        cache=store,
        watchdog=watchdog,
        timeout_s=timeout_s,
        retry=retry,
        faults=faults,
        backend=resolve_backend(backend, workers=workers,
                                worker_address=worker_address),
    )


def runner_for(request: RunRequest) -> Runner:
    """The runner a :class:`RunRequest` asks for."""
    return make_runner(
        jobs=resolve_jobs(request.jobs, request.probes),
        cache=request.cache,
        cache_dir=request.cache_dir,
        watchdog=request.watchdog,
        timeout_s=request.timeout_s,
        retry=request.retry,
        faults=request.faults,
        backend=request.backend,
        workers=request.workers,
    )


def get_experiment(experiment_id: str) -> Experiment:
    """The :class:`Experiment` registered under ``experiment_id``."""
    from repro.experiments import REGISTRY

    try:
        return REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: {known}"
        ) from None


def execute(request: RunRequest, runner: Optional[Runner] = None) -> ExperimentResult:
    """Run one :class:`RunRequest` to completion.

    Pass a shared ``runner`` to reuse one cache/manifest across several
    requests (the CLI's ``all`` does); it is built from the request
    otherwise — and an internally-built runner is closed before
    returning, so its backend machinery and the run's advisory lock are
    released the moment the run ends rather than at garbage-collection
    time.  The request's probe bus and run id are threaded through
    either way.
    """
    if (request.experiment_id is None) == (request.spec is None):
        raise ValueError(
            "RunRequest needs exactly one of experiment_id or spec"
        )
    if request.spec is not None:
        from repro.scenarios.executor import as_experiment

        experiment = as_experiment(request.spec)
    else:
        experiment = get_experiment(request.experiment_id)
    owned = runner is None
    if owned:
        runner = runner_for(request)
    try:
        if request.probes is None:
            return runner.run_experiment(
                experiment, request.settings, run_id=request.run_id)
        from repro.obs import use_probes

        with use_probes(request.probes):
            return runner.run_experiment(
                experiment, request.settings, run_id=request.run_id)
    finally:
        if owned:
            runner.close()
