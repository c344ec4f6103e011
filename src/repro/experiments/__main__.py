"""Command-line entry point for the experiment runners.

Examples::

    python -m repro.experiments fig14 --quick
    python -m repro.experiments all --quick --jobs 4
    python -m repro.experiments fig18 --memory-mb 64 --windows 8
    python -m repro.experiments fig17 --json
    python -m repro.experiments all --csv-out out/ --no-cache
    python -m repro.experiments list
    python -m repro.experiments inspect <run-id>
    python -m repro.experiments inspect --list
    python -m repro.experiments sweep --quick \\
        --axis temperature=NORMAL,EXTENDED --axis memory_mb=16,64 \\
        --set stages.rotation=false
    python -m repro.experiments fig17 --backend cluster --workers 2
    python -m repro.experiments worker --connect 127.0.0.1:7071
    python -m repro.experiments fsck --repair
    python -m repro.experiments gc --max-age 7d --keep-runs 20

``list`` prints every registered scenario with its description.
``inspect`` reconstructs a finished (or interrupted) run's timeline
from its span store (``--list`` enumerates every recorded
run, newest first) — see :mod:`repro.obs.inspect`.
``worker`` joins a cluster coordinator (``repro run/sweep --backend
cluster --bind ADDR`` on the scheduling side) and executes its jobs —
see :mod:`repro.cluster`.
``fsck`` verifies every durable artifact under the cache dir (and with
``--repair`` quarantines damage to ``lost+found/``); ``gc`` applies a
retention policy without ever touching an in-progress run's state —
see :mod:`repro.store`.
``sweep`` runs an ad-hoc, never-registered scenario: each ``--axis``
adds a sweep dimension (settings fields, config overrides, dotted
``stages.<flag>`` keys, ``allocated_fraction`` ...), ``--set`` pins an
override for every cell, and a benchmark axis is appended innermost
unless given.  The sweep runs through the same engine, cache and
run store as the registered figures — repeating an identical sweep is
served from the cache.

Simulation points fan out over ``--jobs`` worker processes and land in
a content-addressed on-disk cache (``--cache-dir``, default
``$REPRO_CACHE_DIR`` or ``.repro-cache``), so re-runs and figures that
share points are served from disk.  Every run prints a summary at the
end; a run with a cache also appends a JSONL manifest (one line per
job: digest, cache hit/miss, wall time, worker id) under
``<cache-dir>/manifests/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import repro.api as api
from repro.experiments import REGISTRY
from repro.obs.spans import phase_seconds


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["inspect"]:
        # `inspect` takes its own flags (--json/--cache-dir mean
        # different things there), so it bypasses the run parser.
        from repro.obs.inspect import main as inspect_main

        return inspect_main(argv[1:])
    if argv[:1] == ["worker"]:
        # `repro worker --connect ADDR`: join a cluster coordinator
        # and execute its jobs until shutdown.
        from repro.cluster.worker import main as worker_main

        return worker_main(argv[1:])
    if argv[:1] == ["fsck"]:
        # `repro fsck [--repair]`: verify the durable store's envelopes
        from repro.store.fsck import main as fsck_main

        return fsck_main(argv[1:])
    if argv[:1] == ["gc"]:
        # `repro gc`: apply a retention policy to the durable store
        from repro.store.gc import main as gc_main

        return gc_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {api.version()}")
    parser.add_argument(
        "experiment",
        help=f"experiment id, 'all', 'list' (describe registered "
             f"scenarios), 'sweep' (ad-hoc --axis/--set sweep), "
             f"'inspect <run-id>' (reconstruct a run's timeline), "
             f"'fsck' (verify/repair the store) or 'gc' (apply a "
             f"retention policy); one of: {', '.join(REGISTRY)}",
    )
    parser.add_argument("--axis", action="append", default=[],
                        metavar="NAME=V1,V2,...",
                        help="(sweep) add a sweep axis: a settings/config "
                             "override key, 'allocated_fraction' or "
                             "'benchmark', with comma-separated values; "
                             "repeatable, first axis is outermost")
    parser.add_argument("--set", action="append", default=[], dest="sets",
                        metavar="KEY=VALUE",
                        help="(sweep) pin one dotted override (e.g. "
                             "stages.rotation=false) for every cell; "
                             "repeatable")
    parser.add_argument("--benchmarks", default=None, metavar="A,B,C",
                        help="(sweep) benchmark axis values (default: the "
                             "settings' suite)")
    parser.add_argument("--quick", action="store_true",
                        help="small scale: 16 MB, 2 windows, 9 benchmarks")
    parser.add_argument("--memory-mb", type=int, default=None,
                        help="simulated capacity in MB (default 32)")
    parser.add_argument("--windows", type=int, default=None,
                        help="measured retention windows (default 8)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: all cores)")
    parser.add_argument("--backend", choices=["serial", "pool", "cluster"],
                        default=None,
                        help="execution backend (default: serial or pool "
                             "derived from --jobs); 'cluster' schedules "
                             "jobs to worker processes over sockets")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="(cluster) fleet size: local workers to "
                             "spawn, or external workers expected on "
                             "--bind (default 2)")
    parser.add_argument("--bind", default=None, metavar="ADDR",
                        help="(cluster) bind HOST:PORT or a unix socket "
                             "path and wait for external 'repro worker "
                             "--connect ADDR' processes instead of "
                             "spawning local ones")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock budget; a job over "
                             "budget counts as a failed attempt")
    parser.add_argument("--retries", type=int, default=None,
                        metavar="N",
                        help="attempts per job before quarantine "
                             "(default 3)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the result cache "
                             "(nor a span store or manifest)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--json", action="store_true",
                        help="print results as JSON instead of tables")
    parser.add_argument("--csv-out", type=Path, default=None, metavar="DIR",
                        help="also write each result as DIR/<id>.csv")
    parser.add_argument("--trace", type=Path, nargs="?", metavar="PATH",
                        const=Path("repro-trace.jsonl"), default=None,
                        help="write a JSONL probe event trace (default "
                             "path: repro-trace.jsonl); implies --jobs 1")
    parser.add_argument("--profile", action="store_true",
                        help="print the populate/warmup/measure spans' "
                             "summed wall times on stderr")
    parser.add_argument("--trace-chrome", type=Path, default=None,
                        metavar="PATH",
                        help="write probe events as a Chrome-trace/"
                             "Perfetto JSON file (open at "
                             "https://ui.perfetto.dev); implies --jobs 1")
    parser.add_argument("--watchdog", action="store_true",
                        help="run invariant checks in every job; "
                             "violations land in the metrics manifest "
                             "and a summary prints on stderr")
    parser.add_argument("--metrics-json", type=Path, default=None,
                        metavar="PATH",
                        help="write the merged run-level metrics "
                             "manifest (per-job probe snapshots folded "
                             "in plan order) as JSON")
    args = parser.parse_args(argv)
    if (args.experiment != "sweep"
            and (args.axis or args.sets or args.benchmarks is not None)):
        parser.error("--axis/--set/--benchmarks only apply to 'sweep'")
    if args.backend != "cluster" and (args.workers is not None
                                      or args.bind is not None):
        parser.error("--workers/--bind require --backend cluster")
    if args.retries is not None and args.retries < 1:
        parser.error(f"--retries must be at least 1, got {args.retries}")
    if args.job_timeout is not None and not args.job_timeout > 0:
        parser.error(f"--job-timeout must be positive, got {args.job_timeout}")

    if args.experiment == "list":
        from repro.experiments import SCENARIOS

        width = max(len(scenario_id) for scenario_id in SCENARIOS)
        for scenario_id, spec in SCENARIOS.items():
            print(f"{scenario_id:<{width}}  {spec.description}")
        return 0

    overrides = {"seed": args.seed}
    if args.memory_mb is not None:
        overrides["memory_mb"] = args.memory_mb
    if args.windows is not None:
        overrides["windows"] = args.windows
    try:
        settings = api.settings_from_dict(overrides, quick=args.quick)
    except ValueError as exc:
        parser.error(str(exc))

    sweep_spec = None
    if args.experiment == "sweep":
        sweep_spec = build_sweep_spec(parser, args, settings)
        names = [sweep_spec.scenario_id]
    else:
        names = (list(REGISTRY) if args.experiment == "all"
                 else [args.experiment])
        for name in names:
            if name not in REGISTRY:
                parser.error(f"unknown experiment {name!r}")
    if args.csv_out is not None:
        args.csv_out.mkdir(parents=True, exist_ok=True)

    traced = args.trace is not None or args.trace_chrome is not None
    bus = None
    chrome_records = None
    if traced:
        from repro.obs import JsonlTraceSink, ListTraceSink, ProbeBus

        if args.trace is not None:
            sink = JsonlTraceSink(args.trace)
        else:
            # no JSONL requested: buffer events in memory for conversion
            sink = ListTraceSink()
            chrome_records = sink.records
        bus = ProbeBus(trace=sink)

    # The event stream is per-process: traced runs stay in-process.
    jobs = 1 if traced else args.jobs
    retry = (api.RetryPolicy(max_attempts=args.retries)
             if args.retries is not None else None)
    runner = api.make_runner(jobs=jobs, cache=not args.no_cache,
                             cache_dir=args.cache_dir,
                             watchdog=args.watchdog,
                             timeout_s=args.job_timeout, retry=retry,
                             backend=args.backend, workers=args.workers,
                             worker_address=args.bind)
    # Tables/JSON go to stdout; timings, profiles and engine diagnostics
    # go to stderr so repeated runs produce byte-identical result
    # streams — instrumented or not.
    run_start = time.time()
    try:
        for name in names:
            start = time.time()
            request = api.RunRequest(
                experiment_id=None if sweep_spec is not None else name,
                spec=sweep_spec, settings=settings, probes=bus,
            )
            result = api.run(request, runner=runner)
            if args.json:
                # the result doc plus the run/trace identity, so
                # machine consumers can feed `repro inspect` without
                # scraping stderr; both ids are deterministic functions
                # of experiment + settings, keeping cold/warm output
                # byte-identical
                doc = result.to_dict()
                doc["run_id"] = runner.last_run_id
                doc["trace_id"] = runner.last_trace_id
                print(json.dumps(doc, indent=2))
            else:
                print(result.render())
                print()
            print(f"[{name}] {time.time() - start:.1f}s", file=sys.stderr)
            if runner.last_run_id is not None:
                print(f"[{name}] run id: {runner.last_run_id} "
                      f"(trace {runner.last_trace_id}; inspect with "
                      f"'inspect')", file=sys.stderr)
            if args.csv_out is not None:
                result.save_csv(args.csv_out / f"{name}.csv")
    finally:
        # release the backend's machinery (a cluster fleet) before the
        # summary prints, so worker teardown noise precedes it
        runner.close()
        if bus is not None:
            bus.close()

    elapsed = time.time() - run_start
    print(f"engine: {runner.summary(elapsed)}", file=sys.stderr)
    if runner.cache is not None:
        manifest_path = (runner.cache.root / "manifests"
                         / f"run-{int(run_start)}-{os.getpid()}.jsonl")
        runner.write_manifest(manifest_path)
        print(f"manifest: {manifest_path}", file=sys.stderr)
    if args.profile:
        parts = [f"{name} {seconds:.3f}s" for name, seconds
                 in phase_seconds(runner.span_records).items()]
        print("profile: " + (", ".join(parts) or "no phases recorded"),
              file=sys.stderr)
    if args.trace is not None:
        print(f"trace: {args.trace} "
              f"({bus.trace.events_written} events)", file=sys.stderr)
    if args.trace_chrome is not None:
        from repro.obs.export import read_jsonl, write_chrome_trace

        records = (chrome_records if chrome_records is not None
                   else read_jsonl(args.trace))
        spans = runner.span_records + [
            r for t in ([runner.tracer] if runner.tracer else [])
            for r in t.records
        ]
        n = write_chrome_trace(records, args.trace_chrome,
                               span_records=spans or None)
        print(f"chrome trace: {args.trace_chrome} ({n} events) — open at "
              f"https://ui.perfetto.dev", file=sys.stderr)
    if args.metrics_json is not None:
        runner.write_metrics_manifest(args.metrics_json)
        print(f"metrics: {args.metrics_json}", file=sys.stderr)
    if args.watchdog:
        inv = runner.merged_metrics.get("invariants") or {}
        print(f"invariants: {inv.get('checks', 0)} checks, "
              f"{inv.get('violation_count', 0)} violations",
              file=sys.stderr)
        for violation in inv.get("violations", [])[:10]:
            fields = ", ".join(f"{k}={v}"
                               for k, v in sorted(violation.items())
                               if k != "check")
            print(f"  {violation.get('check')}: {fields}", file=sys.stderr)
    return 0


def build_sweep_spec(parser, args, settings):
    """An ad-hoc :class:`ScenarioSpec` from ``--axis``/``--set`` flags.

    Axis and override values parse as JSON scalars with a bare-string
    fallback (``16`` is an int, ``false`` a bool, ``NORMAL`` a string),
    matching the wire form a sweep request body would carry.
    """
    from repro.scenarios import parse_value

    if not args.axis:
        parser.error("sweep needs at least one --axis NAME=V1,V2,...")
    axes = {}
    for item in args.axis:
        name, sep, raw = item.partition("=")
        if not sep or not name or not raw:
            parser.error(f"--axis expects NAME=V1,V2,..., got {item!r}")
        if name in axes:
            parser.error(f"duplicate --axis name {name!r}")
        axes[name] = [parse_value(token) for token in raw.split(",")]
    overrides = {}
    for item in args.sets:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            parser.error(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key] = parse_value(raw)
    benchmarks = (args.benchmarks.split(",")
                  if args.benchmarks is not None else None)
    try:
        spec = api.adhoc_sweep_spec(axes, overrides=overrides or None,
                                    benchmarks=benchmarks)
        # Fail on unknown keys/values now, before any engine setup.
        from repro.scenarios import expand

        expand(spec, settings)
    except ValueError as exc:  # ScenarioError, or a bad temperature name
        parser.error(str(exc))
    return spec


if __name__ == "__main__":
    sys.exit(main())
