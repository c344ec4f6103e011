""":class:`ClusterBackend`: the engine-facing side of ``repro.cluster``.

A transport for :func:`repro.experiments.backends.run_pending` over a
:class:`~repro.cluster.coordinator.Coordinator`: a free slot is an idle
worker, a submission leases one task to it, and coordinator events
become the loop's ``done``/``error``/``lost`` events.  Retry, crash,
timeout, quarantine and stall policy all live in the loop, so the
runner makes the same bookkeeping calls in plan order as under
``--jobs 1`` and results, merged metrics and span trees
come out byte-identical.

Worker loss (EOF or lease expiry) reports the dead worker's job as
lost.  When the loop requeues it, it usually lands on a *different*
worker: each resubmission after a loss counts as ``cluster.requeues``
and, on another worker, ``cluster.steals``.  Remote exceptions are
rebuilt with their original type name so the failure strings the
spans record match serial execution byte for byte.

The coordinator (and its spawned fleet) persists across batches — a
sweep reuses warm workers — and is released by :meth:`close`
(``Runner.close()`` / the CLI's ``finally``).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.cluster.coordinator import Coordinator
from repro.cluster.protocol import decode_payload, encode_payload
from repro.obs import get_probes

__all__ = ["ClusterBackend", "RemoteJobError"]


class RemoteJobError(RuntimeError):
    """Base for exceptions rebuilt from a worker's ``error`` frame.

    Subclasses are synthesized per incoming type name, so
    ``type(exc).__name__`` — which the retry bookkeeping embeds in
    span attributes — matches what an in-process
    execution of the same failure would have produced.
    """


def _rebuild_exception(error_type: str, message: str) -> RemoteJobError:
    name = error_type if error_type.isidentifier() else "RemoteJobError"
    return type(name, (RemoteJobError,), {})(message)


class ClusterBackend:
    """Lease jobs to a worker fleet, one job per worker."""

    name = "cluster"
    in_process = False

    def __init__(self, workers: Optional[int] = None,
                 address: Optional[str] = None):
        self.workers = max(1, workers if workers is not None else 2)
        self.address = address
        self._coordinator: Optional[Coordinator] = None
        self._task_seq = itertools.count(1)
        self._tasks: Dict[str, Tuple[str, int]] = {}
        self._lost_on: Dict[str, int] = {}

    def _ensure_coordinator(self) -> Coordinator:
        if self._coordinator is None:
            coordinator = Coordinator(
                self.address,
                spawn_target=0 if self.address is not None else self.workers,
            )
            coordinator.start()
            self._coordinator = coordinator
        return self._coordinator

    def free_slots(self) -> int:
        return len(self._ensure_coordinator().idle_workers())

    def submit(self, key, args) -> bool:
        coordinator = self._ensure_coordinator()
        idle = coordinator.idle_workers()
        if not idle:
            return False
        settings, job, watchdog, fault, wire, attempt = args
        task = str(next(self._task_seq))
        frame = {
            "type": "job",
            "task": task,
            "settings": encode_payload(settings),
            "job": encode_payload(job),
            "watchdog": bool(watchdog),
            "fault": encode_payload(fault) if fault else None,
            "span_wire": wire,
            "attempt": attempt,
        }
        if not coordinator.send_job(idle[0], frame):
            return False
        if key in self._lost_on:
            bus = get_probes()
            bus.count("cluster.requeues")
            if self._lost_on.pop(key) != idle[0]:
                bus.count("cluster.steals")
        self._tasks[task] = (key, idle[0])
        return True

    def poll(self, timeout: float) -> list:
        coordinator = self._ensure_coordinator()
        events = []
        for event in coordinator.poll(timeout):
            # joins, idle workers' deaths and evicted tasks need nothing
            if event[0] == "joined" or event[2] not in self._tasks:
                continue
            key, worker_id = self._tasks.pop(event[2])
            if event[0] == "result":
                events.append(
                    ("done", key, decode_payload(event[3]["payload"])))
            elif event[0] == "error":
                events.append(
                    ("error", key, _rebuild_exception(event[3], event[4])))
            else:
                self._lost_on[key] = worker_id
                events.append(("lost", key, None))
        get_probes().gauge("cluster.workers",
                           float(coordinator.worker_count()))
        return events

    def evict(self, key) -> list:
        """Drop the stuck worker (a spawned replacement joins via the
        respawn loop); no other job is stopped with it."""
        for task, (held, worker_id) in list(self._tasks.items()):
            if held == key:
                del self._tasks[task]
                self._coordinator.drop_worker(worker_id)
        return []

    def close(self) -> None:
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None
        self._tasks.clear()
        self._lost_on.clear()
