"""The coordinator: accept workers, lease jobs out, notice loss.

This is deliberately *transport and liveness only*.  Scheduling policy
— which job goes next, retry/backoff bookkeeping, quarantine — lives in
the engine's one scheduling loop
(:func:`repro.experiments.backends.run_pending`);
:class:`repro.cluster.backend.ClusterBackend` drives this class for it
through three calls: :meth:`poll` (pump sockets, collect events),
:meth:`send_job` (lease one task to one worker) and :meth:`drop_worker`
(evict a stuck one).  Events come back as plain tuples:

``("joined", worker_id)``
    A worker completed the hello/welcome handshake.
``("result", worker_id, task, frame)``
    The worker finished its leased task; ``frame`` is the raw
    ``result`` frame (payload still encoded).
``("error", worker_id, task, error_type, message)``
    The task raised; the worker survives and is idle again.
``("lost", worker_id, task_or_None)``
    The worker died (EOF, protocol garbage) or its lease expired —
    no heartbeat within ``lease_timeout_s``.  Its task, if any, needs
    requeueing; that decision is the scheduling loop's.

**Leases.**  Every frame a worker sends — results, errors, dedicated
heartbeats — renews its lease.  A worker that goes silent for
``lease_timeout_s`` is presumed dead and evicted; a SIGKILLed worker
is usually caught faster via EOF.  Workers heartbeat from a side
thread, so a long-running job does not starve its own lease.

**Spawn mode.**  With no address, the coordinator listens on a unix
socket in a private temp dir and spawns ``spawn_target`` local workers
(``python -m repro.cluster.worker --connect <sock>``), respawning
replacements while work remains (``cluster.respawns``).  Spawned
processes are matched to their connections by the pid in the hello
frame.  With an address, it binds there and waits for external
``repro worker --connect`` processes — it never spawns, and a lost
external worker is simply gone.
"""

from __future__ import annotations

import os
import selectors
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cluster.protocol import (
    FrameError,
    FrameReader,
    parse_address,
    send_frame,
)
from repro.obs import get_probes

__all__ = ["Coordinator", "WorkerHandle"]

_ACCEPT_BACKLOG = 16


class WorkerHandle:
    """One connected worker: socket, lease clock, current task."""

    def __init__(self, worker_id: int, sock: socket.socket):
        self.worker_id = worker_id
        self.sock: Optional[socket.socket] = sock
        self.reader = FrameReader()
        self.joined = False
        self.last_beat = 0.0
        self.task: Optional[str] = None
        self.pid: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "joined" if self.joined else "connecting"
        return (f"WorkerHandle({self.worker_id}, {state}, "
                f"task={self.task!r})")


class Coordinator:
    """Own the listening socket, the worker fleet and its leases."""

    def __init__(
        self,
        address: Optional[str] = None,
        *,
        spawn_target: int = 0,
        heartbeat_s: float = 0.2,
        lease_timeout_s: Optional[float] = None,
        clock=time.monotonic,
    ):
        if address is None and spawn_target < 1:
            raise ValueError("give an address to bind or a spawn_target")
        self.address = address
        self.spawn_target = spawn_target
        self.heartbeat_s = heartbeat_s
        self.lease_timeout_s = (
            lease_timeout_s if lease_timeout_s is not None
            else max(10.0 * heartbeat_s, 2.0)
        )
        self._clock = clock
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self._workers: Dict[int, WorkerHandle] = {}
        self._procs: List[subprocess.Popen] = []
        self._next_id = 1
        self._spawned_total = 0
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> str:
        """Bind, listen, and (in spawn mode) launch the local fleet.

        Returns the address workers should connect to.
        """
        if self.address is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            self.address = str(Path(self._tmpdir.name) / "cluster.sock")
            family, bind_arg = socket.AF_UNIX, self.address
        else:
            family, bind_arg = parse_address(self.address)
        self._listener = socket.socket(family, socket.SOCK_STREAM)
        if family == socket.AF_INET:
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
        self._listener.bind(bind_arg)
        self._listener.listen(_ACCEPT_BACKLOG)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ,
                                data=None)
        for _ in range(self.spawn_target):
            self._spawn_worker()
        return self.address

    def close(self) -> None:
        """Shut the fleet down: polite frames first, SIGKILL last."""
        if self._closed:
            return
        self._closed = True
        for handle in list(self._workers.values()):
            if handle.sock is not None:
                try:
                    send_frame(handle.sock, {"type": "shutdown"})
                except OSError:
                    pass
            self._disconnect(handle)
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for proc in self._procs:
            if proc.poll() is not None:
                continue
            try:
                proc.terminate()
                proc.wait(timeout=2.0)
            except (OSError, subprocess.TimeoutExpired):
                try:
                    proc.kill()
                    proc.wait(timeout=2.0)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        self._procs.clear()
        self._workers.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # ------------------------------------------------------------------
    # fleet state
    # ------------------------------------------------------------------
    def idle_workers(self) -> List[int]:
        """Joined workers with no leased task, in join order."""
        return [h.worker_id for h in self._workers.values()
                if h.joined and h.sock is not None and h.task is None]

    def worker_count(self) -> int:
        """How many workers have joined and still hold a socket."""
        return sum(1 for h in self._workers.values()
                   if h.joined and h.sock is not None)

    # ------------------------------------------------------------------
    # scheduling interface
    # ------------------------------------------------------------------
    def send_job(self, worker_id: int, frame: dict) -> bool:
        """Lease one job frame to one idle worker.

        Returns ``False`` (and evicts the worker, with no event) when
        the send fails — the caller requeues the task.
        """
        handle = self._workers.get(worker_id)
        if handle is None or handle.sock is None or not handle.joined:
            return False
        try:
            send_frame(handle.sock, frame)
        except OSError:
            self._disconnect(handle)
            get_probes().count("cluster.worker_lost")
            return False
        handle.task = frame["task"]
        return True

    def drop_worker(self, worker_id: int) -> None:
        """Evict a worker (over-budget task) with no event; kill its
        process when it is one we spawned — a worker we cannot reclaim
        must not keep running against the same cache."""
        handle = self._workers.get(worker_id)
        if handle is None:
            return
        pid = handle.pid
        self._disconnect(handle)
        for proc in self._procs:
            if proc.pid == pid and proc.poll() is None:
                try:
                    proc.kill()
                except OSError:
                    pass

    def poll(self, timeout: float) -> List[Tuple]:
        """Pump the sockets once; return the events that surfaced."""
        events: List[Tuple] = []
        if self._selector is None:
            raise RuntimeError("Coordinator.poll before start()")
        for key, _ in self._selector.select(timeout):
            if key.data is None:
                self._accept()
            else:
                self._service(key.data, events)
        self._check_leases(events)
        self._reap_and_respawn()
        return events

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            handle = WorkerHandle(self._next_id, sock)
            self._next_id += 1
            handle.last_beat = self._clock()
            self._workers[handle.worker_id] = handle
            self._selector.register(sock, selectors.EVENT_READ, data=handle)

    def _service(self, handle: WorkerHandle, events: List[Tuple]) -> None:
        try:
            data = handle.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._lose(handle, events)
            return
        try:
            frames = handle.reader.feed(data)
        except FrameError:
            self._lose(handle, events)
            return
        handle.last_beat = self._clock()
        for frame in frames:
            kind = frame.get("type")
            if kind == "hello":
                handle.pid = frame.get("pid")
                # Store-integrity gate: cache keys embed the
                # coordinator's code fingerprint, so a worker running
                # different code would cache silently wrong payloads
                # under our keys.  A hello that declares a fingerprint
                # must match; legacy hellos without one still join.
                declared = frame.get("code_version")
                if declared is not None and declared != self._code_version():
                    get_probes().count("cluster.version_skew_rejects")
                    try:
                        send_frame(handle.sock, {
                            "type": "shutdown",
                            "reason": "code version skew",
                        })
                    except OSError:
                        pass
                    self._lose(handle, events)
                    return
                try:
                    send_frame(handle.sock, {
                        "type": "welcome",
                        "worker_id": handle.worker_id,
                        "heartbeat_s": self.heartbeat_s,
                    })
                except OSError:
                    self._lose(handle, events)
                    return
                handle.joined = True
                events.append(("joined", handle.worker_id))
            elif kind == "heartbeat":
                pass  # the recv above already renewed the lease
            elif kind == "result":
                task = frame.get("task")
                handle.task = None
                events.append(("result", handle.worker_id, task, frame))
            elif kind == "error":
                task = frame.get("task")
                handle.task = None
                events.append((
                    "error", handle.worker_id, task,
                    str(frame.get("error_type", "RuntimeError")),
                    str(frame.get("error", "")),
                ))

    @staticmethod
    def _code_version() -> str:
        from repro.experiments.cache import code_version

        return code_version()

    def _lose(self, handle: WorkerHandle, events: List[Tuple]) -> None:
        """EOF/garbage/expiry: evict and surface the orphaned task."""
        if handle.sock is None:
            return
        task = handle.task
        joined = handle.joined
        self._disconnect(handle)
        get_probes().count("cluster.worker_lost")
        if joined:
            events.append(("lost", handle.worker_id, task))

    def _disconnect(self, handle: WorkerHandle) -> None:
        sock = handle.sock
        if sock is None:
            return
        handle.sock = None
        handle.task = None
        if self._selector is not None:
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError):
                pass
        try:
            sock.close()
        except OSError:
            pass
        self._workers.pop(handle.worker_id, None)

    def _check_leases(self, events: List[Tuple]) -> None:
        now = self._clock()
        for handle in list(self._workers.values()):
            if handle.sock is None:
                continue
            if now - handle.last_beat > self.lease_timeout_s:
                get_probes().count("cluster.lease_expiries")
                pid = handle.pid
                self._lose(handle, events)
                for proc in self._procs:
                    if proc.pid == pid and proc.poll() is None:
                        # leaseless but alive: a hung worker we must
                        # not leave running against the same queue
                        try:
                            proc.kill()
                        except OSError:
                            pass

    def _reap_and_respawn(self) -> None:
        """Keep the spawned fleet at target strength while open.

        In spawn mode every worker is one of ``_procs``, so the live
        count is simply the processes still running; a SIGKILLed
        worker is reaped here and replaced (``cluster.respawns``).
        """
        if self._closed or self.spawn_target < 1:
            return
        self._procs = [p for p in self._procs if p.poll() is None]
        for _ in range(self.spawn_target - len(self._procs)):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        prior = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (f"{src_root}{os.pathsep}{prior}" if prior
                             else src_root)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster.worker",
             "--connect", str(self.address)],
            env=env,
        )
        self._procs.append(proc)
        self._spawned_total += 1
        if self._spawned_total > self.spawn_target:
            get_probes().count("cluster.respawns")
