"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --mode MODE \\
        --spawned T [--scale full|tiny] [--workdir DIR] [--spans FILE]

``MODE`` is ``setup`` (import ``repro`` and build the runner or system,
then stop), ``untraced`` (also run the timed region), ``traced`` (run it
under the layer tracer, every engine job in this process) or
``reference`` (untraced, but executed the way ``traced`` is).  ``T`` is the ``time.monotonic()`` reading
of the parent just before it started this process, so set-up time
counts from process start.  The last line of standard output is one
JSON object with the measurements and the workload's outputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

GROUPS = {
    "bulk_encode": ("transform.encode_rows",),
    "write_path": ("controller.write_lines", "workloads.generate_lines"),
    "read_path": ("controller.read_line", "cache.access"),
    "core.populate": ("core.populate",),
    "core.run_windows": ("core.run_windows",),
    "baselines.smart_refresh": ("baselines.smart_refresh",),
}
"""Inclusive span groups: each counts its members with every span
below them, codec calls included."""


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_rep(workload: str, seed: int, mode: str, scale: str = "full",
            spawned: Optional[float] = None, workdir: Optional[Path] = None,
            spans: Optional[Path] = None) -> dict:
    """Run one repetition in this process and return its record."""
    from workloads import SCALES, WORKLOADS

    started = time.monotonic() if spawned is None else spawned
    t_import = time.monotonic()
    import repro.api  # noqa: F401 - timed: the import is set-up work

    import_s = time.monotonic() - t_import
    bench = WORKLOADS[workload](seed, SCALES[scale],
                                in_process=mode in ("traced", "reference"),
                                workdir=workdir)
    bench.setup()
    setup_end = time.monotonic()
    # monotonic stamps, for the speed probes' samples of the same clock
    record = {"mode": mode, "setup_s": setup_end - started,
              "setup_span": [started, setup_end], "import_s": import_s}
    if mode == "setup":
        bench.cleanup()
        return record
    record["input_digest"] = bench.make_inputs()
    tracer = None
    if mode == "traced":
        from tracing import Tracer, summarize

        tracer = Tracer()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    error = None
    outputs = None
    t0 = t1 = time.monotonic()
    try:
        if tracer is None:
            t0 = time.monotonic()
            try:
                outputs = bench.run()
            finally:
                t1 = time.monotonic()
        else:
            with tracer:
                t0 = time.monotonic()
                try:
                    outputs = bench.run()
                finally:
                    t1 = time.monotonic()
    except Exception:  # noqa: BLE001 - a failed operation is a result
        error = traceback.format_exc()
    # every pool worker has been reaped by Runner.close() inside run()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall_s = t1 - t0
    record.update(
        wall_s=wall_s,
        region=[t0, t1],
        cpu_s=(_cpu_s(self1) - _cpu_s(self0)
               + _cpu_s(children1) - _cpu_s(children0)),
        peak_rss_mb=max(self1.ru_maxrss, children1.ru_maxrss) / 1024.0,
        engine=bench.engine_stats(),
        outputs=outputs,
        error=error,
    )
    if tracer is not None:
        record["layers"] = summarize(tracer, wall_s, GROUPS)
        if spans is not None:
            tracer.write(spans)
    bench.cleanup()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "untraced", "traced", "reference"))
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    record = run_rep(args.workload, args.seed, args.mode, args.scale,
                     args.spawned, args.workdir, args.spans)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
