"""Closed/open-loop load generator for the serving daemon.

Two driving disciplines, selected with ``--mode``:

* **closed** — ``concurrency`` workers each issue the next request as
  soon as the previous response lands (one keep-alive connection per
  worker).  Throughput is whatever the server sustains; latency is the
  in-system time under that concurrency.
* **open** — requests start on a fixed schedule at ``rate`` per second
  regardless of completions (fresh connection each), which is how real
  user traffic arrives; latency here includes queueing delay and the
  429 rejections show the backpressure boundary.

Each completed request records wall latency by status code; the run
report carries throughput plus p50/p90/p99/max latency and lands as
JSON (``--report``), in the shape the ``BENCH_*`` regression pipeline
consumes — the CI ``serve-smoke`` job uploads ``BENCH_serve.json``
built by this module.

Usage::

    python -m repro.serve.loadgen --port 8023 --mode closed \
        --concurrency 8 --duration 5 --endpoint experiment \
        --experiment-id tab01 --report BENCH_serve.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.serve.http import ClientConnection, fetch, json_body


@dataclass
class LoadgenResult:
    """Everything one load-generation run measured."""

    mode: str
    endpoint: str
    duration_s: float
    requests: int = 0
    errors: int = 0
    by_status: Dict[int, int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)

    def record(self, status: int, latency_s: float) -> None:
        self.requests += 1
        self.by_status[status] = self.by_status.get(status, 0) + 1
        if status == 200:
            self.latencies_s.append(latency_s)

    def record_error(self) -> None:
        self.requests += 1
        self.errors += 1

    @property
    def ok(self) -> int:
        return self.by_status.get(200, 0)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of successful-request latency."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def report(self) -> dict:
        """JSON-able summary in ``BENCH_*`` pipeline shape."""
        throughput = self.ok / self.duration_s if self.duration_s else 0.0
        return {
            "mode": self.mode,
            "endpoint": self.endpoint,
            "duration_s": round(self.duration_s, 3),
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "by_status": {str(k): v
                          for k, v in sorted(self.by_status.items())},
            "throughput_rps": round(throughput, 2),
            "latency_ms": {
                "p50": round(self.percentile(0.50) * 1e3, 3),
                "p90": round(self.percentile(0.90) * 1e3, 3),
                "p99": round(self.percentile(0.99) * 1e3, 3),
                "max": round(max(self.latencies_s, default=0.0) * 1e3, 3),
                "mean": round(
                    sum(self.latencies_s)
                    / len(self.latencies_s) * 1e3, 3
                ) if self.latencies_s else 0.0,
            },
        }

    def render(self) -> str:
        rep = self.report()
        lat = rep["latency_ms"]
        return (
            f"loadgen [{self.mode}/{self.endpoint}]: "
            f"{rep['ok']}/{rep['requests']} ok in {rep['duration_s']}s "
            f"({rep['throughput_rps']} req/s), latency ms "
            f"p50={lat['p50']} p90={lat['p90']} p99={lat['p99']} "
            f"max={lat['max']}, errors={self.errors}"
        )


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
def build_request(endpoint: str,
                  experiment_id: str) -> "tuple[str, str, Optional[bytes]]":
    """Map an endpoint name to ``(method, path, body)``."""
    if endpoint == "healthz":
        return "GET", "/healthz", None
    if endpoint == "metrics":
        return "GET", "/metrics", None
    if endpoint == "experiment":
        return ("POST", f"/v1/experiments/{experiment_id}",
                json_body({"quick": True}))
    raise ValueError(f"unknown endpoint {endpoint!r}")


# ----------------------------------------------------------------------
# driving disciplines
# ----------------------------------------------------------------------
async def run_closed_loop(
    host: str, port: int, *, concurrency: int, duration_s: float,
    method: str, path: str, body: Optional[bytes],
    result: LoadgenResult,
) -> None:
    """``concurrency`` workers, each back-to-back on one connection."""
    deadline = time.perf_counter() + duration_s

    async def worker() -> None:
        conn = ClientConnection(host, port)
        try:
            while time.perf_counter() < deadline:
                start = time.perf_counter()
                try:
                    status, _, _ = await conn.request(method, path, body=body)
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    result.record_error()
                    await conn.close()
                    continue
                result.record(status, time.perf_counter() - start)
        finally:
            await conn.close()

    await asyncio.gather(*(worker() for _ in range(concurrency)))


async def run_open_loop(
    host: str, port: int, *, rate: float, duration_s: float,
    method: str, path: str, body: Optional[bytes],
    result: LoadgenResult, max_outstanding: int = 1024,
) -> None:
    """Fire requests on a fixed schedule, completions notwithstanding."""
    interval = 1.0 / rate
    outstanding: "set[asyncio.Task]" = set()
    start_time = time.perf_counter()
    n = 0
    while True:
        now = time.perf_counter()
        if now - start_time >= duration_s:
            break
        target = start_time + n * interval
        if target > now:
            await asyncio.sleep(target - now)

        async def one() -> None:
            begin = time.perf_counter()
            try:
                status, _, _ = await fetch(host, port, method, path,
                                           body=body)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                result.record_error()
                return
            result.record(status, time.perf_counter() - begin)

        if len(outstanding) >= max_outstanding:
            # shed load locally rather than buffering without bound
            result.record_error()
        else:
            task = asyncio.ensure_future(one())
            outstanding.add(task)
            task.add_done_callback(outstanding.discard)
        n += 1
    if outstanding:
        await asyncio.gather(*outstanding, return_exceptions=True)


async def run_loadgen(
    host: str, port: int, *, mode: str = "closed",
    endpoint: str = "experiment", concurrency: int = 4, rate: float = 100.0,
    duration_s: float = 5.0, experiment_id: str = "fig19",
) -> LoadgenResult:
    """Drive one load-generation run and return its measurements."""
    method, path, body = build_request(endpoint, experiment_id)
    result = LoadgenResult(mode=mode, endpoint=endpoint,
                           duration_s=duration_s)
    start = time.perf_counter()
    if mode == "closed":
        await run_closed_loop(
            host, port, concurrency=concurrency, duration_s=duration_s,
            method=method, path=path, body=body, result=result,
        )
    elif mode == "open":
        await run_open_loop(
            host, port, rate=rate, duration_s=duration_s,
            method=method, path=path, body=body, result=result,
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result.duration_s = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Load-generate against a running repro-serve daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8023)
    parser.add_argument("--mode", choices=("closed", "open"),
                        default="closed")
    parser.add_argument("--endpoint",
                        choices=("experiment", "healthz", "metrics"),
                        default="experiment")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="closed-loop worker count")
    parser.add_argument("--rate", type=float, default=100.0,
                        help="open-loop request rate per second")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="run length in seconds")
    parser.add_argument("--experiment-id", default="fig19",
                        help="experiment for --endpoint experiment")
    parser.add_argument("--report", type=Path, default=None, metavar="PATH",
                        help="write the run report as JSON (BENCH_* shape)")
    parser.add_argument("--require-success", action="store_true",
                        help="exit 1 unless every request returned 200")
    args = parser.parse_args(argv)

    result = asyncio.run(run_loadgen(
        args.host, args.port, mode=args.mode, endpoint=args.endpoint,
        concurrency=args.concurrency, rate=args.rate,
        duration_s=args.duration, experiment_id=args.experiment_id,
    ))
    print(result.render())
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            json.dumps(result.report(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report: {args.report}", file=sys.stderr)
    if args.require_success and (result.errors
                                 or result.ok != result.requests):
        print("loadgen: FAILED (non-200 responses or transport errors)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
