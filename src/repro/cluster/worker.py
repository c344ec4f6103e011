"""``repro worker``: connect to a coordinator and run its jobs.

One process, one job at a time.  The loop is: ``hello`` → ``welcome``
→ (``job`` → ``result``/``error``)* → ``shutdown``/EOF.  A daemon
thread heartbeats at the coordinator's advertised cadence so a
long-running simulation does not look like a dead worker; a lock
serializes heartbeats against result frames on the shared socket.

Jobs run through the same bootstrap as every other backend —
:func:`repro.experiments.worker.run_job_in_worker` — so the probe
snapshot, attempt span and fault semantics are identical to the pool's.
A ``kill`` fault SIGKILLs *this* process mid-job, which is exactly the
live-worker-death the chaos driver and the cluster backend's
requeue/steal path are proven against.

The hello frame carries this worker's code-version fingerprint (the
same one cache keys embed); the coordinator refuses a mismatched
worker at join time, because results computed by different code cached
under the coordinator's content addresses would be silent wrong data —
exactly the corruption class no checksum can catch.

Failed jobs ship an ``error`` frame carrying the exception's type name
and message; the worker itself survives and takes the next lease.
Spans ship back only on success (the coordinator fabricates
failed-attempt spans), keeping cluster span trees byte-identical to
``--jobs 1``.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
from typing import List, Optional

from repro.cluster.protocol import (
    FrameReader,
    decode_payload,
    encode_payload,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.experiments.worker import run_job_in_worker

__all__ = ["main", "serve_forever"]


def _run_one(frame: dict) -> dict:
    """Execute one job frame; build the reply frame."""
    task = frame.get("task")
    try:
        settings = decode_payload(frame["settings"])
        job = decode_payload(frame["job"])
        fault = (decode_payload(frame["fault"])
                 if frame.get("fault") else None)
        outcome = run_job_in_worker(
            settings, job,
            watchdog=bool(frame.get("watchdog")),
            fault=fault,
            span_wire=frame["span_wire"],
            attempt=int(frame.get("attempt", 1)),
        )
    except BaseException as exc:  # noqa: BLE001 - ships to the runner
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return {
            "type": "error",
            "task": task,
            "error_type": type(exc).__name__,
            "error": str(exc),
        }
    return {"type": "result", "task": task,
            "payload": encode_payload(outcome)}


def _heartbeat_loop(sock: socket.socket, lock: threading.Lock,
                    interval_s: float, stop: threading.Event) -> None:
    while not stop.wait(interval_s):
        try:
            with lock:
                send_frame(sock, {"type": "heartbeat"})
        except OSError:
            return


def serve_forever(address: str) -> int:
    """Connect to ``address`` and run jobs until shutdown/EOF."""
    family, connect_arg = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.connect(connect_arg)
    lock = threading.Lock()
    stop = threading.Event()
    reader = FrameReader()
    try:
        from repro.experiments.cache import code_version

        with lock:
            send_frame(sock, {
                "type": "hello",
                "pid": os.getpid(),
                "host": socket.gethostname(),
                # the coordinator refuses a fingerprint mismatch:
                # results computed by different code must never be
                # cached under this coordinator's content addresses
                "code_version": code_version(),
            })
        welcome = recv_frame(sock, reader)
        if welcome is None or welcome.get("type") != "welcome":
            print("repro worker: no welcome from coordinator",
                  file=sys.stderr)
            return 1
        interval_s = float(welcome.get("heartbeat_s", 0.2))
        beat = threading.Thread(
            target=_heartbeat_loop, args=(sock, lock, interval_s, stop),
            daemon=True,
        )
        beat.start()
        while True:
            frame = recv_frame(sock, reader)
            if frame is None or frame.get("type") == "shutdown":
                return 0
            if frame.get("type") != "job":
                continue
            reply = _run_one(frame)
            with lock:
                send_frame(sock, reply)
    except OSError:
        # coordinator went away mid-conversation; nothing to clean up —
        # every completed job was already shipped
        return 0
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Join a repro cluster and execute simulation jobs.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="ADDR",
        help="coordinator address: HOST:PORT for TCP, otherwise a "
             "unix socket path",
    )
    args = parser.parse_args(argv)
    return serve_forever(args.connect)


if __name__ == "__main__":  # pragma: no cover - python -m repro.cluster.worker
    sys.exit(main())
