"""Execution backends and the one scheduling loop that drives them.

The :class:`~repro.experiments.engine.Runner` owns *policy* — cache
lookups, the run store, retry/backoff bookkeeping, quarantine, span
minting.  :func:`run_pending` is the one scheduling loop: it decides
what runs when and feeds every outcome back into that bookkeeping.  A
backend is only the transport the loop drives (:class:`ExecutionBackend`):

``serial``
    In the driving process, one job at a time: the held job runs when
    the loop polls.  The fallback every other backend degrades to.
``pool``
    A ``ProcessPoolExecutor`` on this host, ``min(jobs, pending)``
    workers wide — the ``--jobs N`` path.
``cluster``
    :class:`repro.cluster.backend.ClusterBackend` — N worker processes
    on this or other hosts, joined over a length-prefixed JSON frame
    protocol with lease-based heartbeats.

The loop makes the same bookkeeping calls in plan order whatever
carried the job, which keeps results, run stores, merged metrics and
span trees byte-identical across backends.  Every transport funnels the
job body through one bootstrap,
:func:`repro.experiments.worker.run_job_in_worker`.
"""

from __future__ import annotations

import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Protocol

from repro.experiments.worker import run_job_in_worker
from repro.obs import get_probes

__all__ = [
    "ExecutionBackend",
    "PoolBackend",
    "SerialBackend",
    "resolve_backend",
    "run_pending",
]

BACKEND_NAMES = ("serial", "pool", "cluster")
"""The backend names the CLI/serve layers accept."""

STALL_S = 60.0
"""How long a ready job may find no free slot, with nothing in flight,
before the loop gives up on the backend and runs the rest in-process."""

_TICK_S = 0.05


class ExecutionBackend(Protocol):
    """The transport :func:`run_pending` drives.

    ``in_process`` says whether jobs run in the driving process (an
    armed ``kill`` fault then degrades to a plain crash).
    """

    name: str
    in_process: bool

    def free_slots(self) -> int:  # pragma: no cover - protocol
        """How many more jobs it can start right now."""

    def submit(self, key, args) -> bool:  # pragma: no cover - protocol
        """Start one job (``args`` are :func:`run_job_in_worker`'s);
        ``False`` when the transport refused it."""

    def poll(self, timeout: float) -> list:  # pragma: no cover - protocol
        """Wait up to ``timeout`` s; return ``(kind, key, value)``
        events: ``done`` (value: the bootstrap's 5-tuple), ``error``
        (the exception) or ``lost`` (the worker died under the job)."""

    def evict(self, key) -> list:  # pragma: no cover - protocol
        """Stop a job (over budget, or left behind by a loop that
        raised; it may already have ended); return the other keys
        stopped with it."""

    def close(self) -> None:  # pragma: no cover - protocol
        """Release long-lived machinery (pools, sockets, workers)."""


def run_pending(runner, backend, settings, pending, results, metrics,
                timings) -> None:
    """Run every job in ``pending`` (``key -> SimJob``) to completion
    or quarantine over ``backend``.

    The policy, decided here once for every backend:

    * ready jobs go out in plan order, only into free slots, and a
      job's timeout clock starts at its submission; a job backing off
      does not hold up the jobs behind it;
    * a job with a worker crash on record runs alone;
    * a lost job takes a crash on its record and is requeued at once
      or quarantined (:meth:`Runner._note_crash`);
    * an over-budget job counts one failed attempt
      (:meth:`Runner._note_timeout`) and is evicted; jobs stopped with
      it go back on the queue with their try handed back;
    * with nothing in flight and a job ready, two refused submissions
      in a row or :data:`STALL_S` without a free slot is a stall: the
      rest runs in-process, after one :class:`RuntimeWarning`.
    """
    order = {key: index for index, key in enumerate(pending)}
    queue: List[str] = list(pending)
    not_before: Dict[str, float] = {}
    inflight: Dict[str, float] = {}
    refused = 0
    idle_since: Optional[float] = None
    bus = get_probes()

    def requeue(key: str, delay: float = 0.0) -> None:
        not_before[key] = runner._clock() + delay
        queue.append(key)
        queue.sort(key=order.__getitem__)

    def solo(key: str) -> bool:
        return runner._crashes.get(key, 0) > 0

    try:
        while queue or inflight:
            now = runner._clock()
            ready = [key for key in queue if not_before.get(key, 0.0) <= now]
            for key in ready:
                if backend.free_slots() < 1 or (inflight and (
                        solo(key) or any(map(solo, inflight)))):
                    break
                fault = runner._armed_fault(key,
                                            in_process=backend.in_process)
                wire, attempt = runner._attempt_args(key)
                args = (settings, pending[key], runner.watchdog, fault, wire,
                        attempt)
                if not backend.submit(key, args):
                    runner._tries[key] -= 1  # the attempt never started
                    refused += 1
                    break
                refused = 0
                queue.remove(key)
                inflight[key] = runner._clock()
            bus.gauge("engine.queue_depth", float(len(queue)))

            if inflight or not ready:
                idle_since = None
            else:
                idle_since = now if idle_since is None else idle_since
                if refused >= 2 or now - idle_since >= STALL_S:
                    reason = (f"{refused} submissions refused"
                              if refused >= 2
                              else f"no free slot for {STALL_S:.0f}s")
                    warnings.warn(
                        f"{backend.name} backend stalled ({reason}); "
                        f"running the remaining {len(queue)} jobs "
                        f"in-process",
                        RuntimeWarning, stacklevel=2,
                    )
                    backend = SerialBackend()
                    refused, idle_since = 0, None
                    continue
            if not inflight and not ready:
                # everything queued is backing off
                wake = min(not_before.get(key, 0.0) for key in queue)
                runner._sleep(max(wake - runner._clock(), 0.001))
                continue

            for kind, key, value in backend.poll(_TICK_S):
                del inflight[key]
                if kind == "done":
                    runner._complete(key, value, results, metrics, timings)
                elif kind == "error":
                    backoff = runner._note_failure(key, pending[key], value)
                    if backoff is not None:
                        requeue(key, backoff)
                elif runner._note_crash(key, pending[key]):
                    requeue(key)

            if runner.timeout_s is None:
                continue
            now = runner._clock()
            for key in [k for k, t0 in inflight.items()
                        if now - t0 > runner.timeout_s]:
                if key not in inflight:
                    continue  # already stopped with an earlier eviction
                del inflight[key]
                for other in backend.evict(key):
                    del inflight[other]
                    runner._tries[other] -= 1
                    requeue(other)
                backoff = runner._note_timeout(key, pending[key])
                if backoff is not None:
                    requeue(key, backoff)
    finally:
        # a loop left by an exception must not leave jobs behind whose
        # late results a long-lived backend would hand the next batch
        while inflight:
            key, _ = inflight.popitem()
            for other in backend.evict(key):
                inflight.pop(other, None)


class SerialBackend:
    """Run jobs in the driving process; the held job runs when polled."""

    name = "serial"
    in_process = True

    def __init__(self):
        self._held = None

    def free_slots(self) -> int:
        return 0 if self._held else 1

    def submit(self, key, args) -> bool:
        self._held = (key, args)
        return True

    def poll(self, timeout: float) -> list:
        if self._held is None:
            return []
        key, args = self._held
        self._held = None
        try:
            return [("done", key, run_job_in_worker(*args))]
        except Exception as exc:  # noqa: BLE001 - retry boundary
            return [("error", key, exc)]

    def evict(self, key) -> list:
        # an in-process job has finished before the loop reads the clock;
        # one held here was never started
        self._held = None
        return []

    def close(self) -> None:
        pass


class PoolBackend:
    """A local ``ProcessPoolExecutor``, ``width`` workers wide.

    The runner builds one per batch, ``min(jobs, pending)`` wide, and
    closes it after the batch, so its workers are reaped before the
    batch returns; a ``PoolBackend`` handed to the runner only selects
    that.  A pool that breaks reports every job it held as lost; an
    eviction recycles the whole pool, since a stuck worker cannot be
    reclaimed.
    """

    name = "pool"
    in_process = False

    def __init__(self, width: int = 1):
        self._width = width
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[object, str] = {}

    def free_slots(self) -> int:
        return self._width - len(self._futures)

    def submit(self, key, args) -> bool:
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self._width)
            future = self._pool.submit(run_job_in_worker, *args)
        except (RuntimeError, OSError):  # the pool is dead or cannot start
            # the jobs it holds still end: a broken pool fails them
            # (polled as lost), a worker that could not spawn leaves
            # them running; with none held, start afresh next time
            if not self._futures:
                self._drop(kill=True)
            return False
        self._futures[future] = key
        return True

    def poll(self, timeout: float) -> list:
        if not self._futures:
            return []
        done, _ = wait(self._futures, timeout=timeout,
                       return_when=FIRST_COMPLETED)
        events = []
        broken = False
        for future in [f for f in self._futures if f in done]:
            key = self._futures.pop(future)
            try:
                events.append(("done", key, future.result()))
            except BrokenProcessPool:
                broken = True
                events.append(("lost", key, None))
            except Exception as exc:  # noqa: BLE001 - retry boundary
                events.append(("error", key, exc))
        if broken:
            # every job the dead pool still held shared its fate
            events += [("lost", key, None) for key in self._futures.values()]
            self._drop(kill=True)
        return events

    def evict(self, key) -> list:
        others = [k for k in self._futures.values() if k != key]
        self._drop(kill=True)
        return others

    def close(self) -> None:
        self._drop(kill=bool(self._futures))

    def _drop(self, kill: bool) -> None:
        """Shut the pool down; ``kill`` terminates its workers first
        instead of waiting on them."""
        pool, self._pool = self._pool, None
        self._futures.clear()
        if pool is None:
            return
        if not kill:
            pool.shutdown(wait=True)
            return
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - already dead
                pass
        pool.shutdown(wait=False, cancel_futures=True)


def resolve_backend(
    backend=None,
    *,
    workers: Optional[int] = None,
    worker_address: Optional[str] = None,
):
    """Turn a backend name (or ready instance) into an instance.

    ``None`` returns ``None`` — the runner then picks serial or pool
    per pending batch, the historical ``jobs``-driven behaviour.  The
    ``cluster`` name imports lazily so plain runs never pay for the
    socket machinery.  ``workers``/``worker_address`` only apply to
    ``cluster`` (how many local workers to spawn, or the address to
    bind and wait for ``repro worker --connect`` peers on).
    """
    if backend is None:
        if workers is not None or worker_address is not None:
            raise ValueError(
                "workers/worker_address need backend='cluster'"
            )
        return None
    if not isinstance(backend, str):
        return backend
    if backend == "cluster":
        from repro.cluster.backend import ClusterBackend

        return ClusterBackend(workers=workers, address=worker_address)
    if workers is not None or worker_address is not None:
        raise ValueError("workers/worker_address need backend='cluster'")
    if backend == "serial":
        return SerialBackend()
    if backend == "pool":
        return PoolBackend()
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
    )
