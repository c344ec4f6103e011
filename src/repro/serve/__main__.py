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
        description="Serve experiment and sweep runs over HTTP.",
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
    parser.add_argument("--workers", type=int, default=2,
                        help="experiment worker processes "
                             "(0: in-process threads)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the engine result cache")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--drain-grace", type=float, default=10.0,
                        metavar="SECONDS",
                        help="in-flight grace period on shutdown")
    parser.add_argument("--metrics-json", type=Path, default=None,
                        metavar="PATH",
                        help="write the final metrics snapshot on exit")
    args = parser.parse_args(argv)

    from repro.serve import ServeConfig, serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        request_timeout_s=args.request_timeout,
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_dir=str(args.cache_dir) if args.cache_dir else None,
        drain_grace_s=args.drain_grace,
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
