"""Parallel, cache-aware, fault-tolerant experiment execution engine.

An experiment is split into *planning* and *reduction* around a
fan-out middle:

``plan(settings) -> list[SimJob]``
    Pure description of the simulation points the experiment needs.
``reduce(settings, results) -> ExperimentResult``
    Aggregation of the per-job results (ordered as planned) into the
    printable table.

Between the two, :class:`Runner` executes jobs — deduplicated, cache
checked via :class:`~repro.experiments.cache.ResultCache`, and run
by the one scheduling loop over an execution backend
(:mod:`repro.experiments.backends`): in-process, a process pool when
``jobs > 1``, or a worker cluster.  Jobs are fully deterministic (seeds
are explicit in the job description), so every backend produces
identical results.

Every executed or cache-served job appends an entry to the runner's
manifest (experiment id, settings digest, cache hit/miss, wall time,
worker id), which :mod:`repro.experiments.__main__` writes as JSONL
and summarizes at the end of a run.

**Metrics pipeline.**  Every job — in-process or in a pool worker —
runs under its own probe bus (forked from the ambient bus when one is
installed, so ``--trace`` events still stream live).  The job's
:meth:`~repro.obs.ProbeBus.snapshot` ships back alongside its result,
is stored with it in the cache, and is folded into the runner's
``merged_metrics`` in **plan order**, deduplicated by job digest.
Plan-order merging makes the manifest independent of fan-out: a
``jobs=4`` run merges to exactly the ``jobs=1`` numbers, and cache hits
replay the stored snapshot so warm runs report the same simulation
counters as cold ones.  ``Runner(watchdog=True)`` makes each job's bus
a checking bus (:meth:`~repro.obs.ProbeBus.check`), whose findings ride
along in the snapshot's ``invariants`` section; such a runner treats a
cache entry without that section as a miss, so it checks every job.

**Run lifecycle.**  With a cache attached, every ``run_experiment``
streams its span tree to the run's store
(``<cache>/spans/<run-id>.jsonl``, see :func:`repro.obs.spans.load_run`):
a ``plan`` span carrying the plan digest, then one job span per job as
it lands in the cache (``done``), is served from it (``cached``) or is
quarantined.  A store whose plan span carries this plan's digest is
appended to, so it keeps every run of its plan; another plan's store
is truncated.  Finished jobs are cache hits, so re-issuing a run
killed 90% through a sweep executes only the rest.
Failures are bounded rather than fatal: a job exception or timeout
retries with exponential backoff up to
:class:`RetryPolicy.max_attempts`; a job whose worker process dies
under it is re-run alone and quarantined after ``max_worker_crashes``
incidents.  Quarantined jobs become
:class:`JobFailure` records and the run returns a partial-failure
:class:`ExperimentResult` naming its run id — the rest of the
plan still completes and is recorded.  Deterministic chaos tests
script all of this through a
:class:`~repro.experiments.faults.FaultPlan`.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments import faults as faults_mod
from repro.experiments.backends import (
    PoolBackend,
    SerialBackend,
    resolve_backend,
    run_pending,
)
from repro.experiments.cache import ResultCache, stable_digest
from repro.experiments.faults import FaultPlan
from repro.experiments.runner import ExperimentResult, ExperimentSettings
from repro.obs import empty_snapshot, get_probes, merge_snapshots
from repro.obs.probes import JsonlTraceSink
from repro.obs.spans import (
    SpanContext,
    SpanTracer,
    load_run,
    root_context,
    span_path,
    trace_id_for_run,
)
from repro.store import locks as store_locks

SIMULATE = "repro.experiments.runner:simulate_benchmark"
"""Default job function: one full-system benchmark simulation."""


@dataclass(frozen=True)
class SimJob:
    """One simulation point of an experiment's plan.

    The default function is :func:`~repro.experiments.runner.simulate_benchmark`
    called with ``(settings, benchmark, allocated_fraction,
    config_overrides, seed_offset)``.  Experiments whose inner loop is
    not a plain benchmark simulation point ``fn`` at any importable
    ``"module:attr"`` callable with signature ``fn(settings, job)``;
    ``params`` carries its extra arguments.  Everything in a job must
    be picklable and canonicalizable — it crosses process boundaries
    and feeds the cache key.
    """

    benchmark: str = ""
    allocated_fraction: float = 1.0
    config_overrides: Optional[Dict[str, object]] = None
    seed_offset: int = 0
    fn: str = SIMULATE
    params: Optional[Dict[str, object]] = None


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the runner fights for each job before giving up.

    ``max_attempts`` bounds ordinary job exceptions (and timeouts);
    ``max_worker_crashes`` bounds how often a job may take its worker
    process down with it before being quarantined as poison.  Backoff
    between retries is exponential: ``backoff_base_s * factor**(n-1)``
    capped at ``backoff_max_s``.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    max_worker_crashes: int = 2

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_worker_crashes < 1:
            raise ValueError("max_worker_crashes must be >= 1")

    def backoff_s(self, failure_count: int) -> float:
        """Delay before the retry that follows failure ``failure_count``."""
        exponent = max(0, failure_count - 1)
        return min(self.backoff_max_s,
                   self.backoff_base_s * self.backoff_factor ** exponent)


@dataclass(frozen=True)
class JobFailure:
    """One quarantined job in a partial-failure report."""

    digest: str
    job_index: int
    benchmark: str
    error: str
    attempts: int
    worker_crashes: int = 0


def default_run_id(experiment_id: str, settings) -> str:
    """Deterministic run id for one (experiment, settings) pair, so
    finishing a lost run is just re-issuing the request."""
    return f"{experiment_id}-{stable_digest('run', experiment_id, settings)[:12]}"


def resolve_job_fn(spec: str) -> Callable:
    """Import the ``"module:attr"`` callable a job names."""
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ValueError(f"job fn must be 'module:attr', got {spec!r}")
    return getattr(importlib.import_module(module_name), attr)


def execute_job(settings: ExperimentSettings, job: SimJob):
    """Run one job to completion in the current process."""
    fn = resolve_job_fn(job.fn)
    if job.fn == SIMULATE:
        return fn(
            settings,
            job.benchmark,
            job.allocated_fraction,
            job.config_overrides,
            job.seed_offset,
        )
    return fn(settings, job)


def _pack_cached(result, snapshot) -> dict:
    """The cache payload: result plus its captured metrics snapshot."""
    return {"result": result, "metrics": snapshot}


def _unpack_cached(payload):
    """Split a cache payload into ``(result, snapshot-or-None)``."""
    if isinstance(payload, dict) and set(payload) == {"result", "metrics"}:
        return payload["result"], payload["metrics"]
    return payload, None


class Experiment:
    """A registered experiment: its ``plan`` and its ``reduce``.

    A :class:`Runner` executes it (``Runner.run_experiment``); callers
    outside the engine go through :func:`repro.api.run`.
    """

    def __init__(
        self,
        experiment_id: str,
        *,
        plan: Callable[[ExperimentSettings], List[SimJob]],
        reduce: Callable[[ExperimentSettings, list], ExperimentResult],
    ):
        self.experiment_id = experiment_id
        self.plan = plan
        self.reduce = reduce

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Experiment({self.experiment_id!r})"


@dataclass
class RunnerStats:
    """Aggregate counters over everything a runner executed."""

    jobs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    sim_seconds: float = 0.0
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    quarantined: int = 0
    faults_injected: int = 0

    def merged_into_summary(self, elapsed_s: float) -> str:
        parts = [
            f"{self.jobs} jobs",
            f"{self.cache_hits} cache hits",
            f"{self.cache_misses} misses",
            f"{self.sim_seconds:.1f}s simulated",
            f"{elapsed_s:.1f}s elapsed",
        ]
        for label, value in (
            ("retries", self.retries),
            ("timeouts", self.timeouts),
            ("worker crashes", self.worker_crashes),
            ("quarantined", self.quarantined),
        ):
            if value:
                parts.append(f"{value} {label}")
        return ", ".join(parts)


class Runner:
    """Executes experiments: cache lookup, process fan-out, manifest.

    Parameters
    ----------
    jobs:
        Worker processes for plan/reduce experiments.  ``None`` means
        ``os.cpu_count()``; ``1`` runs everything in-process.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching (which
        also disables the on-disk run store — it lives under the cache
        root and its done jobs are promises the cache keeps).
    watchdog:
        When true, every job runs on a checking probe bus; check and
        violation totals land in the merged metrics manifest.  A job
        an unwatched run cached is run again and its entry rewritten.
    timeout_s:
        Per-job wall-clock budget, counted from submission; a job over
        budget counts as a failed attempt and is evicted (a pool is
        recycled).  It cannot stop a job that runs in-process.
    retry:
        The :class:`RetryPolicy` (default: 3 attempts, 2 worker
        crashes, exponential backoff).
    faults:
        A :class:`~repro.experiments.faults.FaultPlan` for
        deterministic chaos testing; ``None`` in production.
    backend:
        An :class:`~repro.experiments.backends.ExecutionBackend` name
        (``"serial"`` | ``"pool"`` | ``"cluster"``) or instance.
        ``None`` (the default) picks serial or pool per pending batch
        from ``jobs`` — the historical behaviour.  Long-lived backends
        (cluster workers, sockets) are released by :meth:`close`.
    clock / sleep:
        Injectable time sources for the retry/backoff machinery
        (tests pass fakes; production uses ``time.monotonic`` /
        ``time.sleep``).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        watchdog: bool = False,
        *,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        backend=None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        if timeout_s is not None and not timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s!r}")
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache = cache
        self.watchdog = watchdog
        self.backend = resolve_backend(backend)
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults if faults else None
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else time.sleep
        self.manifest: List[dict] = []
        self.stats = RunnerStats()
        self.merged_metrics: dict = empty_snapshot()
        self.metrics_entries: List[dict] = []
        self.failures: List[JobFailure] = []
        self.last_run_id: Optional[str] = None
        self.last_trace_id: Optional[str] = None
        self.tracer: Optional[SpanTracer] = None
        self.span_records: List[dict] = []
        self.run_records: List[dict] = []
        self._metric_keys: set = set()
        self._run_lock = None
        self._stored_keys: Set[str] = set()
        self._job_index: Dict[str, int] = {}
        self._tries: Dict[str, int] = {}
        self._failcount: Dict[str, int] = {}
        self._crashes: Dict[str, int] = {}
        self._span_root: Optional[SpanContext] = None
        self._span_ctx: Dict[str, SpanContext] = {}
        self._job_t0: Dict[str, float] = {}
        self._attempt_t0: Dict[str, float] = {}
        self._stats_mark: dict = {}
        self._runner_faults_applied: set = set()

    # ------------------------------------------------------------------
    def run_experiment(
        self,
        experiment: Experiment,
        settings: Optional[ExperimentSettings] = None,
        *,
        run_id: Optional[str] = None,
    ) -> ExperimentResult:
        """Run one experiment; record progress; survive job failures.

        ``run_id`` overrides the run's (otherwise deterministic) id and
        so names the store the run records into.  When jobs were
        quarantined the returned result is a partial-failure report
        instead of the experiment's reduction; completed work is cached
        and recorded either way, so issuing the run again finishes it.
        """
        if settings is None:
            settings = ExperimentSettings()
        failures_before = len(self.failures)
        t_run0 = t_plan0 = time.time()
        plan = experiment.plan(settings)
        keys = self._plan_keys(settings, plan)
        plan_digest = stable_digest("plan", list(keys))
        t_plan1 = time.time()
        self._open_run(experiment.experiment_id, settings, plan_digest,
                       run_id)
        # the plan ran before the trace existed (planning feeds the run
        # id); fabricate its span now.  It binds the store to the plan:
        # the next run of the id reads the digest back from it
        self.tracer.record_span(
            "plan", parent=self._span_root, qualifier="",
            t0=t_plan0, dur_s=t_plan1 - t_plan0, planned=len(plan),
            plan_digest=plan_digest, settings_digest=stable_digest(settings),
            experiment_id=experiment.experiment_id, run_id=self.last_run_id)
        try:
            results = self.run_jobs(
                experiment.experiment_id, settings, plan, keys=keys
            )
            failures = self.failures[failures_before:]
            if failures:
                return self._partial_failure_result(
                    experiment.experiment_id, len(plan), failures
                )
            t_reduce0 = time.time()
            result = experiment.reduce(settings, results)
            self.tracer.record_span(
                "reduce", parent=self._span_root, qualifier="",
                t0=t_reduce0, dur_s=time.time() - t_reduce0)
            return result
        finally:
            self._finish_run(experiment.experiment_id, len(plan),
                             failures_before, t_run0)

    # ------------------------------------------------------------------
    # run and trace lifecycle
    # ------------------------------------------------------------------
    def _plan_keys(self, settings: ExperimentSettings,
                   jobs: Sequence[SimJob]) -> List[str]:
        # without a cache the key still holds the settings: metrics are
        # merged once per key, and one job runs at many settings
        return [
            self.cache.job_key(settings, job) if self.cache
            else stable_digest(settings, job)
            for job in jobs
        ]

    def _open_run(self, experiment_id: str, settings: ExperimentSettings,
                  plan_digest: str, run_id: Optional[str]) -> None:
        self.last_run_id = None
        rid = run_id or default_run_id(experiment_id, settings)
        if self.cache is None:
            # no cache → no on-disk store, but the trace still exists
            # in memory (--trace-chrome without a cache, direct calls)
            self._mint_trace(rid)
            return
        # claim the run id under an advisory lock: a concurrent run
        # sharing this cache dir holding `rid` pushes us to `rid.2`,
        # `rid.3`, ... so two processes can never interleave a store
        rid, self._run_lock, conflicts = store_locks.acquire_run_id(
            self.cache.root, rid
        )
        if conflicts:
            get_probes().count("store.run_id_conflicts", conflicts)
        self.last_run_id = rid
        prior = load_run(self.cache.root, rid)
        if prior is not None and prior.plan_digest != plan_digest:
            # another plan's store (code or settings changed): start clean
            get_probes().count("engine.journal_stale")
            prior = None
        # append to this plan's store, so it keeps every run of it (one
        # trace id: dedup by span id folds them into one tree); flush
        # every record so a killed run stays inspectable
        sink = JsonlTraceSink(
            span_path(self.cache.root, rid),
            flush_every=1, append=prior is not None, checksum=True,
        )
        self._mint_trace(rid, sink=sink)
        if prior is not None:
            # done jobs the store records get no second `cached` span
            self._stored_keys = set(prior.done)

    def _release_run_lock(self) -> None:
        if self._run_lock is not None:
            self._run_lock.release()
            self._run_lock = None

    def _mint_trace(self, rid: str, sink=None) -> None:
        self._retire_tracer()
        self.tracer = SpanTracer(trace_id_for_run(rid), sink=sink)
        self.last_trace_id = self.tracer.trace_id
        self._span_root = root_context(self.tracer.trace_id)
        self._span_ctx = {}
        # keys whose done/cached job span the store already holds
        self._stored_keys = set()
        self._stats_mark = asdict(self.stats)

    def _retire_tracer(self) -> None:
        if self.tracer is not None:
            self.span_records.extend(self.tracer.records)
            self.tracer.close()
            self.tracer = None
            self._span_root = None

    def _finish_run(self, experiment_id: str, planned: int,
                    failures_before: int, t_run0: float) -> None:
        """Emit the root ``run`` span, retire the tracer, release the
        run id.  Runs in a ``finally`` so even a raising run leaves a
        root record (status ``failed``) behind."""
        failures_delta = len(self.failures) - failures_before
        mark = self._stats_mark
        delta = {name: value - mark.get(name, 0)
                 for name, value in asdict(self.stats).items()
                 if isinstance(value, int)}
        status = ("failed" if sys.exc_info()[0] is not None
                  else "partial" if failures_delta else "ok")
        self.tracer.emit_context(
            self._span_root, t_run0, time.time() - t_run0,
            experiment_id=experiment_id, run_id=self.last_run_id,
            status=status, planned=planned,
            cache_hits=delta.get("cache_hits", 0),
            cache_misses=delta.get("cache_misses", 0),
            retries=delta.get("retries", 0),
            timeouts=delta.get("timeouts", 0),
            worker_crashes=delta.get("worker_crashes", 0),
            quarantined=delta.get("quarantined", 0),
        )
        self.run_records.append({
            "experiment_id": experiment_id,
            "run_id": self.last_run_id,
            "trace_id": self.tracer.trace_id,
        })
        self._retire_tracer()
        self._release_run_lock()

    # ------------------------------------------------------------------
    def run_jobs(
        self,
        experiment_id: str,
        settings: ExperimentSettings,
        jobs: Sequence[SimJob],
        keys: Optional[Sequence[str]] = None,
    ) -> list:
        """Execute ``jobs``, returning results in plan order.

        Identical jobs are computed once; cached results are served
        without touching a worker.  Quarantined jobs yield ``None`` in
        the returned list (and a :class:`JobFailure` on ``failures``).
        """
        if keys is None:
            keys = self._plan_keys(settings, jobs)
        if self.tracer is None:
            # direct run_jobs callers (no run_experiment envelope) still
            # get a deterministic trace, in memory only
            self._mint_trace(default_run_id(experiment_id, settings))
        self._job_index = {}
        for index, key in enumerate(keys):
            self._job_index.setdefault(key, index)
        self._tries = {}
        self._failcount = {}
        self._crashes = {}
        self._job_t0 = {}
        self._attempt_t0 = {}
        results: Dict[str, object] = {}
        metrics: Dict[str, Optional[dict]] = {}
        hit_keys = set()
        pending: Dict[str, SimJob] = {}
        ambient = get_probes()
        for job, key in zip(jobs, keys):
            if key in results or key in pending:
                continue
            t0 = time.time()
            cached = self.cache.get(key) if self.cache else None
            if cached is None:
                pending[key] = job
                continue
            result, snapshot = _unpack_cached(cached)
            if self.watchdog and "invariants" not in (snapshot or {}):
                # an unwatched run filled this entry, so nothing checked
                # the job: run it again on a checking bus and rewrite it
                pending[key] = job
                continue
            results[key] = result
            metrics[key] = snapshot
            hit_keys.add(key)
            if key not in self._stored_keys:
                # record the hit as done: the store names every job
                # whose result the cache holds
                self._span_ctx[key] = self._span_root.child(
                    "job", qualifier=key)
                self._job_t0[key] = t0
                self._emit_job_span(key, status="cached")
            # cache hits replay their stored metrics, so a warm run
            # reports the same simulation counters as a cold one
            if ambient.enabled and snapshot:
                ambient.merge_snapshot(snapshot)

        timings = self._execute_pending(settings, pending, results, metrics)
        self._merge_metrics(keys, metrics)

        settings_digest = stable_digest(settings)
        failed_keys = {f.digest for f in self.failures}
        for index, (job, key) in enumerate(zip(jobs, keys)):
            hit = key in hit_keys
            wall_s, worker = timings.get(key, (0.0, None))
            failed = key in failed_keys and key not in results
            self._record(
                experiment_id=experiment_id,
                job_index=index,
                fn=job.fn,
                benchmark=job.benchmark,
                allocated_fraction=job.allocated_fraction,
                digest=key,
                settings_digest=settings_digest,
                cache_hit=hit,
                wall_s=0.0 if hit else wall_s,
                worker=worker,
                **({"failed": True} if failed else {}),
            )
        return [results.get(key) for key in keys]

    # ------------------------------------------------------------------
    # execution: the one scheduling loop over the batch's backend
    # ------------------------------------------------------------------
    def _execute_pending(
        self,
        settings: ExperimentSettings,
        pending: Dict[str, SimJob],
        results: Dict[str, object],
        metrics: Dict[str, Optional[dict]],
    ) -> Dict[str, tuple]:
        """Run the cache misses through :func:`run_pending`.

        With no explicit backend, a pending batch of more than one job
        fans out over a process pool when ``jobs > 1``; otherwise it
        runs serially in-process.  A pool is built for one batch,
        ``min(jobs, pending)`` workers wide, and closed after it.
        """
        timings: Dict[str, tuple] = {}
        if not pending:
            return timings
        backend = self.backend
        if backend is None or isinstance(backend, PoolBackend):
            pooled = backend is not None or (
                self.jobs > 1 and len(pending) > 1)
            backend = (PoolBackend(min(self.jobs, len(pending))) if pooled
                       else SerialBackend())
        try:
            run_pending(self, backend, settings, pending, results, metrics,
                        timings)
        finally:
            if backend is not self.backend:
                backend.close()
        return timings

    def close(self) -> None:
        """Release the backend's long-lived machinery (workers, sockets)."""
        if self.backend is not None:
            self.backend.close()
        self._release_run_lock()

    # ------------------------------------------------------------------
    # retry / fault bookkeeping
    # ------------------------------------------------------------------
    def _armed_fault(self, key: str, in_process: bool):
        """Consume one try for ``key``; return its armed fault, if any."""
        tries = self._tries[key] = self._tries.get(key, 0) + 1
        if self.faults is None:
            return None
        spec = self.faults.worker_fault(self._job_index.get(key, -1), tries)
        if spec is None:
            return None
        if in_process and spec.kind == "kill":
            spec = spec.as_crash()
        self.stats.faults_injected += 1
        get_probes().count("engine.faults_injected")
        return spec

    def _attempt_args(self, key: str) -> Tuple[dict, int]:
        """Span wire + attempt number for one submission of ``key``.

        The job span context is minted on the first submission (its
        record is only *emitted* at completion/quarantine — see
        :meth:`_emit_job_span`); the attempt number is whatever
        :meth:`_armed_fault` just counted the try up to.
        """
        ctx = self._span_ctx.get(key)
        if ctx is None:
            ctx = self._span_ctx[key] = self._span_root.child(
                "job", qualifier=key)
            self._job_t0[key] = time.time()
        self._attempt_t0[key] = time.time()
        return ctx.to_wire(), self._tries.get(key, 1)

    def _record_failed_attempt(self, key: str, error: str) -> None:
        """Fabricate the attempt span a failed/crashed worker couldn't
        ship back; same deterministic id a successful attempt would
        have used, so serial and pool trees stay identical."""
        ctx = self._span_ctx.get(key)
        if ctx is None or self.tracer is None:
            return
        now = time.time()
        t0 = self._attempt_t0.get(key, now)
        self.tracer.record_span(
            "attempt", parent=ctx, qualifier=str(self._tries.get(key, 0)),
            t0=t0, dur_s=now - t0, error=error)

    def _emit_job_span(self, key: str, status: str, **attrs) -> None:
        ctx = self._span_ctx.get(key)
        if ctx is None or self.tracer is None:
            return
        now = time.time()
        t0 = self._job_t0.get(key, now)
        self.tracer.emit_context(
            ctx, t0, now - t0, digest=key,
            index=self._job_index.get(key, -1), status=status,
            attempts=self._tries.get(key, 0), **attrs)

    def _note_failure(self, key: str, job: SimJob, exc: BaseException):
        """Record a failed attempt; backoff seconds, or ``None`` when
        the job is out of attempts and has been quarantined."""
        ambient = get_probes()
        fails = self._failcount[key] = self._failcount.get(key, 0) + 1
        ambient.count("engine.job_failures")
        self._record_failed_attempt(key, f"{type(exc).__name__}: {exc}")
        if fails >= self.retry.max_attempts:
            self._quarantine(key, job, error=f"{type(exc).__name__}: {exc}")
            return None
        self.stats.retries += 1
        ambient.count("engine.retries")
        return self.retry.backoff_s(fails)

    def _note_timeout(self, key: str, job: SimJob):
        """Record an over-budget attempt; returns as :meth:`_note_failure`."""
        self.stats.timeouts += 1
        get_probes().count("engine.job_timeouts")
        return self._note_failure(key, job, TimeoutError(
            f"job exceeded per-job timeout of {self.timeout_s}s"))

    def _note_crash(self, key: str, job: SimJob) -> bool:
        """Record that the worker died under ``key``; ``True`` to
        requeue it, ``False`` once it has crashed too often and has
        been quarantined."""
        self.stats.worker_crashes += 1
        get_probes().count("engine.worker_crashes")
        self._record_failed_attempt(key, "worker process crashed")
        crashes = self._crashes[key] = self._crashes.get(key, 0) + 1
        if crashes < self.retry.max_worker_crashes:
            return True
        self._quarantine(key, job, error=(
            f"worker process crashed {crashes}x running this job"))
        return False

    def _quarantine(self, key: str, job: SimJob, error: str) -> None:
        failure = JobFailure(
            digest=key,
            job_index=self._job_index.get(key, -1),
            benchmark=job.benchmark,
            error=error,
            attempts=self._tries.get(key, 0),
            worker_crashes=self._crashes.get(key, 0),
        )
        self.failures.append(failure)
        self.stats.quarantined += 1
        get_probes().count("engine.quarantined_jobs")
        self._emit_job_span(key, status="quarantined", error=error,
                            worker_crashes=failure.worker_crashes)

    def _partial_failure_result(self, experiment_id: str, total_jobs: int,
                                failures: List[JobFailure]) -> ExperimentResult:
        rows = [
            [f.job_index, f.benchmark, f.error, f.attempts, f.worker_crashes]
            for f in sorted(failures, key=lambda f: f.job_index)
        ]
        run_hint = (
            f" in run {self.last_run_id!r}" if self.last_run_id else ""
        )
        return ExperimentResult(
            experiment_id=experiment_id,
            title="PARTIAL FAILURE: quarantined jobs",
            headers=["job", "benchmark", "error", "attempts",
                     "worker_crashes"],
            rows=rows,
            notes=(f"{len(failures)} of {total_jobs} planned jobs "
                   f"quarantined; completed jobs are cached and "
                   f"recorded{run_hint}"),
        )

    def _apply_runner_faults(self, key: str) -> None:
        index = self._job_index.get(key, -1)
        for spec in self.faults.runner_faults(index):
            marker = (index, spec.kind)
            if marker in self._runner_faults_applied:
                continue
            self._runner_faults_applied.add(marker)
            self.stats.faults_injected += 1
            get_probes().count("engine.faults_injected")
            if spec.kind == "corrupt-cache":
                if self.cache is not None:
                    faults_mod.corrupt_cache_entry(self.cache, key)
            elif spec.kind == "bitflip-cache":
                if self.cache is not None:
                    faults_mod.bitflip_cache_entry(self.cache, key)
            elif spec.kind == "abort-run":  # pragma: no cover - kills us
                faults_mod.abort_run()

    # ------------------------------------------------------------------
    def _complete(self, key, outcome, results, metrics, timings) -> None:
        """Land one finished job; ``outcome`` is the 5-tuple
        :func:`~repro.experiments.worker.run_job_in_worker` returns."""
        result, snapshot, wall_s, worker, span_records = outcome
        results[key] = result
        metrics[key] = snapshot
        timings[key] = (wall_s, worker)
        # the worker's attempt + phase spans, recorded under the job
        # context we shipped it
        self.tracer.add_records(span_records)
        if self.cache:
            self.cache.put(key, _pack_cached(result, snapshot))
        # cache first, then the job span: a done span is only ever a
        # promise the cache can keep
        self._emit_job_span(key, status="done")
        # freshly executed jobs fold into the ambient bus, so a caller's
        # bus (RunRequest(probes=...), --trace) sees their counters live
        ambient = get_probes()
        if ambient.enabled and snapshot:
            ambient.merge_snapshot(snapshot)
        if self.faults is not None:
            self._apply_runner_faults(key)

    def _merge_metrics(self, keys: Sequence[str],
                       metrics: Dict[str, Optional[dict]]) -> None:
        """Fold per-job snapshots into the run-level manifest.

        Merging happens in **plan order** and each job digest is merged
        once per runner lifetime, so the merged numbers do not depend on
        completion order, fan-out, or how many figures shared a job.
        """
        for key in keys:
            if key in self._metric_keys:
                continue
            self._metric_keys.add(key)
            snapshot = metrics.get(key)
            if snapshot:
                self.merged_metrics = merge_snapshots(
                    self.merged_metrics, snapshot
                )
                self.metrics_entries.append(
                    {"digest": key, "metrics": snapshot}
                )

    # ------------------------------------------------------------------
    def _record(self, *, cache_hit: bool, wall_s: float, **entry) -> None:
        self.manifest.append(dict(entry, cache_hit=cache_hit, wall_s=round(wall_s, 4)))
        self.stats.jobs += 1
        if cache_hit:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
            self.stats.sim_seconds += wall_s

    def metrics_manifest(self) -> dict:
        """The run-level metrics manifest.

        ``merged`` is the fold of every unique job's probe snapshot (in
        plan order — identical whatever ``jobs`` was); ``jobs`` lists
        the per-job snapshots keyed by digest, in merge order; ``runs``
        names each run this runner executed with its run and trace ids
        so scripted callers can correlate without scraping stderr.
        """
        return {
            "merged": self.merged_metrics,
            "jobs": list(self.metrics_entries),
            "runs": [dict(entry) for entry in self.run_records],
        }

    def write_metrics_manifest(self, path) -> None:
        """Write :meth:`metrics_manifest` to ``path`` as JSON."""
        import json
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.metrics_manifest(), sort_keys=True, indent=2)
            + "\n",
            encoding="utf-8",
        )

    def write_manifest(self, path) -> None:
        """Append the collected manifest entries to ``path`` as JSONL."""
        import json
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            for entry in self.manifest:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")

    def summary(self, elapsed_s: float) -> str:
        return self.stats.merged_into_summary(elapsed_s)
