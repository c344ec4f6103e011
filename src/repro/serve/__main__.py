"""``repro-serve`` — command-line entry point of the serving daemon.

Examples::

    repro-serve --port 8023 --workers 4
    repro-serve --port 0                 # ephemeral port, printed on boot
    repro-serve --workers 0              # in-process thread workers (debug)

The daemon serves until SIGTERM/SIGINT, then drains: the listener
closes, in-flight requests get ``--drain-grace`` seconds to finish,
and the worker pool shuts down.  ``--metrics-json`` writes the final
merged observability snapshot on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    from repro.api import version

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve codec transforms and experiment runs over HTTP.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {version()}")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8023,
                        help="listen port (0 picks an ephemeral port)")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="in-flight bound before 429 backpressure")
    parser.add_argument("--request-timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="per-request deadline (504 on expiry)")
    parser.add_argument("--batch-max", type=int, default=32,
                        help="transform micro-batch size bound")
    parser.add_argument("--batch-delay-ms", type=float, default=2.0,
                        help="transform micro-batch coalescing window")
    parser.add_argument("--workers", type=int, default=2,
                        help="experiment worker processes "
                             "(0: in-process threads)")
    parser.add_argument("--rows", type=int, default=4096,
                        help="codec cell-type table size (valid row_index "
                             "range of /v1/transform)")
    parser.add_argument("--experiment-backend",
                        choices=["serial", "pool", "cluster"], default=None,
                        help="execution backend for offloaded experiment "
                             "runs (default: derived from jobs=1); "
                             "'cluster' schedules each run's jobs over "
                             "--experiment-workers cluster workers")
    parser.add_argument("--experiment-workers", type=int, default=None,
                        metavar="N",
                        help="(with --experiment-backend cluster) cluster "
                             "fleet size per offloaded run (default 2)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the engine result cache")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--drain-grace", type=float, default=10.0,
                        metavar="SECONDS",
                        help="in-flight grace period on shutdown")
    parser.add_argument("--gc-interval", type=float, default=0.0,
                        metavar="SECONDS",
                        help="run a store retention GC sweep every N "
                             "seconds (0: disabled)")
    parser.add_argument("--gc-max-bytes", type=int, default=None,
                        metavar="N",
                        help="GC policy: cache payload byte budget")
    parser.add_argument("--gc-max-age", default=None, metavar="AGE",
                        help="GC policy: drop state older than AGE "
                             "(e.g. 90s, 15m, 6h, 7d)")
    parser.add_argument("--gc-keep-runs", type=int, default=None,
                        metavar="N",
                        help="GC policy: keep only the newest N runs' "
                             "span stores")
    parser.add_argument("--metrics-json", type=Path, default=None,
                        metavar="PATH",
                        help="write the final metrics snapshot on exit")
    args = parser.parse_args(argv)

    from repro.serve import ServeConfig, serve
    from repro.store.gc import parse_age

    try:
        gc_max_age_s = (parse_age(args.gc_max_age)
                        if args.gc_max_age is not None else None)
    except ValueError as exc:
        parser.error(str(exc))

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        request_timeout_s=args.request_timeout,
        batch_max=args.batch_max,
        batch_delay_s=args.batch_delay_ms / 1e3,
        workers=args.workers,
        num_rows=args.rows,
        use_cache=not args.no_cache,
        cache_dir=str(args.cache_dir) if args.cache_dir else None,
        drain_grace_s=args.drain_grace,
        experiment_backend=args.experiment_backend,
        experiment_workers=args.experiment_workers,
        gc_interval_s=args.gc_interval,
        gc_max_bytes=args.gc_max_bytes,
        gc_max_age_s=gc_max_age_s,
        gc_keep_runs=args.gc_keep_runs,
    )
    server = asyncio.run(serve(config))
    if args.metrics_json is not None:
        args.metrics_json.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_json.write_text(
            json.dumps(server.metrics_snapshot(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"metrics: {args.metrics_json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
