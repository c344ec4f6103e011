"""The repository's benchmark: one workload, one seed, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition of the workload runs
in a fresh process (``rep.py``), so no run's peak memory or warm state
leaks into the next.  Repetitions go on, closed loop, until about
``S`` seconds have been spent, always at least one.

``--trace 0`` reports the end-to-end metrics, medians over the
repetitions: wall time and CPU time (the process and its pool workers)
of the timed region, set-up time (process start to the timed region,
from several fresh processes), peak resident memory, and the share of
operations that passed the output checks.  The times are host times
scaled to a reference core speed by probes that measure each CPU's
speed while the repetitions run (``speed.py``), wall times less what
the host stole from the working CPUs: this host's cores change speed
from second to second, and raw times drift with them.

``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer split: self time and call counts of each wrapped public
function of ``repro``, plus engine counters from the untraced runs.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check, expected_for, load_expected  # noqa: E402
from speed import Speedometer, host_speed  # noqa: E402
from workloads import WORKLOADS, canonical, operations  # noqa: E402

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("norm_wall_s", "s"),
    ("norm_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("transform.encode_rows.self_s", "s"),
    ("transform.encode_rows.lines", "count"),
    ("transform.bitplane.self_s", "s"),
    ("transform.bitplane.calls", "count"),
    ("transform.bitplane.lines_per_call", "lines"),
    ("transform.ebdi.self_s", "s"),
    ("transform.decode_row.self_s", "s"),
    ("transform.decode_row.calls", "count"),
    ("transform.rotation.self_s", "s"),
    ("controller.populate_pages.self_s", "s"),
    ("controller.write_lines.self_s", "s"),
    ("controller.write_lines.calls", "count"),
    ("controller.write_lines.lines_per_call", "lines"),
    ("controller.read_line.self_s", "s"),
    ("controller.read_line.calls", "count"),
    ("workloads.generate_pages.self_s", "s"),
    ("workloads.generate_lines.self_s", "s"),
    ("workloads.generate_lines.calls", "count"),
    ("workloads.window_trace.self_s", "s"),
    ("dram.populate_rows.self_s", "s"),
    ("dram.refresh.self_s", "s"),
    ("dram.process_ar.calls", "count"),
    ("dram.groups_refreshed", "count"),
    ("dram.groups_skipped", "count"),
    ("core.build.self_s", "s"),
    ("core.write_hook.self_s", "s"),
    ("core.populate_s", "s"),
    ("core.run_windows_s", "s"),
    ("sim.window_s.p50", "s"),
    ("sim.window_s.tail", "s"),
    ("sim.window_s.tail_pct", "%"),
    ("sim.window_s.n", "count"),
    ("baselines.smart_refresh_s", "s"),
    ("cache.access.self_s", "s"),
    ("cache.access.calls", "count"),
    ("cache.l1.hit_ratio", "ratio"),
    ("cache.llc.hit_ratio", "ratio"),
    ("cache.llc.writebacks", "count"),
    ("cpu.replay.self_s", "s"),
    ("engine.jobs", "count"),
    ("engine.job_s_sum", "s"),
    ("engine.pool_efficiency", "ratio"),
    ("engine.retries", "count"),
    ("store.put.calls", "count"),
    ("store.put.self_s", "s"),
    ("setup.import_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("split.bulk_encode_share", "ratio"),
    ("split.write_path_share", "ratio"),
    ("split.read_path_share", "ratio"),
    ("host.wall_s", "s"),
    ("host.cpu_s", "s"),
    ("host.setup_s", "s"),
    ("host.speed_factor", "ratio"),
    ("host.stolen_s", "s"),
)

SETUP_PROBES = 4
"""Extra fresh processes per run that only set up, for ``setup_s``."""

RUN_BUDGET_S = 170.0
"""No repetition starts that could end after this (the run must exit
within 180 s)."""


class Failed(Exception):
    """A repetition process that produced no record."""


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def spawn(root: Path, workload: str, seed: int, mode: str, scale: str,
          workdir: Path, timeout_s: float,
          spans: Optional[Path] = None) -> dict:
    """Run one repetition in a fresh interpreter; return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["REPRO_CACHE_DIR"] = str(workdir / "repro-cache")
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--scale", scale,
               "--workdir", str(workdir)]
    if spans is not None:
        command += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(command + ["--spawned", repr(spawned)],
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise Failed(f"{mode} repetition timed out after {exc.timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise Failed(f"{mode} repetition exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", root: Path = HERE.parent) -> dict:
    """Run the workload for about ``seconds``; return every repetition
    record with the checks' verdicts."""
    began = time.monotonic()
    workdir = root / ".perfbench-work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = root / ".perfbench-out" / f"{workload}.spans.jsonl"
    if trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
    modes: Tuple[str, ...] = ("untraced",)
    if trace:
        # the tracer sees one process only; a pooled workload also needs
        # an untraced run executed that way, for the tracing overhead
        modes += ("reference", "traced") if WORKLOADS[workload].pooled \
            else ("traced",)
    ops = operations(workload, scale)
    records: List[dict] = []
    setup: List[dict] = []
    errors: List[str] = []
    attempted = failed = 0

    def left() -> float:
        return RUN_BUDGET_S - (time.monotonic() - began)

    try:
        with Speedometer(workdir / "speed") as meter:
            for _ in range(SETUP_PROBES):
                setup.append(spawn(root, workload, seed, "setup", scale,
                                   workdir, left()))
            cycles = 0
            loop_began = time.monotonic()
            while True:
                for mode in modes:
                    attempted += ops
                    try:
                        record = spawn(root, workload, seed, mode, scale,
                                       workdir, left(),
                                       spans if mode == "traced" else None)
                    except Failed as exc:
                        failed += ops
                        errors.append(str(exc))
                        continue
                    records.append(record)
                cycles += 1
                now = time.monotonic()
                per_cycle = (now - loop_began) / cycles
                if now - began + per_cycle > seconds or per_cycle > left():
                    break
        samples = meter.samples()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kernels = WORKLOADS[workload].speed_kernels
    for record in setup + records:
        record["setup_speed"], record["setup_stolen_s"] = host_speed(
            samples, *record["setup_span"], kernels)
        if "region" in record:
            record["speed"], record["stolen_s"] = host_speed(
                samples, *record["region"], kernels)

    # the committed expectations are full-scale outputs
    expected = (expected_for(load_expected(), workload, seed)
                if scale == "full" else None)
    first = None  # the first untraced record that passed its checks
    for record in records:
        bad, problems = check(workload, record, expected, ops)
        if not bad and record["mode"] == "untraced":
            if first is None:
                first = record
            elif canonical(record["outputs"]) != canonical(first["outputs"]):
                bad, problems = ops, ["outputs differ between repetitions"]
        record["failed"] = bad
        failed += bad
        errors += [f"{record['mode']}: {p}" for p in problems]
    for record in records:
        if record["mode"] == "untraced" or record["failed"]:
            continue
        problems = []
        if first is None or canonical(record["outputs"]) != canonical(
                first["outputs"]):
            problems.append("outputs differ from untraced outputs")
        if record.get("layers", {}).get("conservation_errors"):
            problems.append("a refresh window broke group conservation")
        if problems:
            record["failed"] = ops
            failed += ops
            errors += [f"{record['mode']}: {p}" for p in problems]
    return {"records": records, "setup": setup, "attempted": attempted,
            "failed": failed, "errors": errors, "expected": expected,
            "first": first}


def _norm_wall(records: List[dict]) -> float:
    """Median wall time at the reference speed, the time the host stole
    from the working CPUs taken out (CPU time never counts it)."""
    return _median([max(r["wall_s"] - r["stolen_s"], 0.0) * r["speed"]
                    for r in records])


def _setup(run: dict) -> float:
    return _median([max(r["setup_s"] - r["setup_stolen_s"], 0.0)
                    * r["setup_speed"]
                    for r in run["setup"] + run["records"]])


def end_to_end(run: dict) -> Dict[str, float]:
    untraced = [r for r in run["records"] if r["mode"] == "untraced"]
    attempted = max(run["attempted"], 1)
    return {
        "norm_wall_s": _norm_wall(untraced),
        "norm_cpu_s": _median([r["cpu_s"] * r["speed"] for r in untraced]),
        "setup_s": _setup(run),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        "ok_ratio": (attempted - run["failed"]) / attempted,
    }


def per_layer(run: dict) -> Dict[str, float]:
    untraced = [r for r in run["records"] if r["mode"] == "untraced"]
    traced = [r for r in run["records"] if r["mode"] == "traced"]
    # untraced runs executed as the traced ones were
    reference = [r for r in run["records"] if r["mode"] == "reference"]
    reference = reference or untraced
    if not traced:
        return {name: 0.0 for name, _ in PER_LAYER}
    layers = [r["layers"] for r in traced]
    first = layers[0]

    def self_s(name: str) -> float:
        return _median([layer["self_s"][name] for layer in layers])

    def inclusive(group: str) -> float:
        return _median([layer["inclusive_s"][group] for layer in layers])

    def share(group: str) -> float:
        return _median([layer["inclusive_s"][group] / r["wall_s"]
                        for layer, r in zip(layers, traced)
                        if r["wall_s"] > 0])

    def per_call(name: str) -> float:
        calls = first["calls"][name]
        return first["counts"].get(name + ".items", 0) / calls if calls else 0.0

    counts = first["counts"]
    outputs = (run["first"] or traced[0])["outputs"] or {}
    l1_hits = sum(outputs.get("l1_hits", []))
    l1_total = l1_hits + sum(outputs.get("l1_misses", []))
    llc_hits = outputs.get("llc_hits", 0)
    llc_total = llc_hits + outputs.get("llc_misses", 0)
    wall = _median([r["wall_s"] for r in untraced])
    engine = [r["engine"] for r in untraced]
    workers = max([e["workers"] for e in engine] or [1])
    job_s = _median([e["job_s_sum"] for e in engine])
    window = first["window_s"]
    metrics = {}
    # "<span>.self_s", "<span>.calls" and "<span>.lines_per_call" come
    # straight from the span of that name
    for name, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if span not in first["calls"]:
            continue
        if stat == "self_s":
            metrics[name] = self_s(span)
        elif stat == "calls":
            metrics[name] = first["calls"][span]
        elif stat == "lines_per_call":
            metrics[name] = per_call(span)
    metrics.update({
        "transform.encode_rows.lines":
            counts.get("transform.encode_rows.items", 0),
        "dram.process_ar.calls": counts.get("dram.process_ar.calls", 0),
        "dram.groups_refreshed": counts.get("dram.groups_refreshed", 0),
        "dram.groups_skipped": counts.get("dram.groups_skipped", 0),
        "core.populate_s": inclusive("core.populate"),
        "core.run_windows_s": inclusive("core.run_windows"),
        "sim.window_s.p50": _median([layer["window_s"]["p50"]
                                     for layer in layers]),
        "sim.window_s.tail": _median([layer["window_s"]["tail"]
                                      for layer in layers]),
        "sim.window_s.tail_pct": window["tail_pct"],
        "sim.window_s.n": window["n"],
        "baselines.smart_refresh_s": inclusive("baselines.smart_refresh"),
        "cache.l1.hit_ratio": l1_hits / l1_total if l1_total else 0.0,
        "cache.llc.hit_ratio": llc_hits / llc_total if llc_total else 0.0,
        "cache.llc.writebacks": outputs.get("llc_writebacks", 0),
        "engine.jobs": _median([e["jobs"] for e in engine]),
        "engine.job_s_sum": job_s,
        "engine.pool_efficiency":
            job_s / (wall * workers) if wall and job_s else 0.0,
        "engine.retries": sum(e["retries"] for e in engine),
        "setup.import_s": _median([r["import_s"]
                                   for r in run["setup"] + run["records"]]),
        "trace.overhead_s": _norm_wall(traced) - _norm_wall(reference),
        "trace.unattributed_s": _median([layer["unattributed_s"]
                                         for layer in layers]),
        "split.bulk_encode_share": share("bulk_encode"),
        "split.write_path_share": share("write_path"),
        "split.read_path_share": share("read_path"),
        "host.wall_s": wall,
        "host.cpu_s": _median([r["cpu_s"] for r in untraced]),
        "host.setup_s": _median([r["setup_s"]
                                 for r in run["setup"] + run["records"]]),
        "host.speed_factor": _median([r["speed"] for r in untraced]),
        "host.stolen_s": _median([r["stolen_s"] for r in untraced]),
    })
    return metrics


def fidelity_line(workload: str, outputs: Optional[dict],
                  exact: bool) -> str:
    """Headline simulated values beside the paper's (information only)."""
    basis = ("identity with this model's committed outputs for this seed"
             if exact else "seed-independent invariants only")
    note = (f"checks: {basis}; the model is not validated against "
            f"hardware")
    if not outputs:
        return f"fidelity (information only): no outputs; {note}"
    if workload == "trace-replay":
        return (f"fidelity (information only): normalized refresh "
                f"{outputs['normalized_refresh']:.3f}, integrity "
                f"{'kept' if outputs['integrity'] else 'VIOLATED'}; no paper "
                f"reference for this path; {note}")
    if workload == "capacity-sweep":
        shown = ", ".join(f"{row[0]} smart {row[1]:.3f} zero {row[2]:.3f}"
                          for row in outputs["rows"])
    else:
        shown = ", ".join(
            f"{row[0]} " + "/".join(f"{v:.3f}" for v in row[1:])
            for row in outputs["rows"] if row[0] == "average")
    paper = ", ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in outputs["paper_reference"].items())
    return f"fidelity (information only): {shown}; paper {paper}; {note}"


def result_line(run: dict, trace: bool) -> dict:
    values = per_layer(run) if trace else end_to_end(run)
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "correct": run["failed"] == 0 and run["attempted"] > 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not run["records"]:
        for error in run["errors"]:
            print(f"perfbench: {error}", file=sys.stderr)
        return 1
    result = result_line(run, bool(args.trace))
    reps = sum(r["mode"] == "untraced" for r in run["records"])
    print(f"perfbench {args.workload} seed {args.seed}: {reps} untraced "
          f"repetitions, {run['failed']} of {run['attempted']} operations "
          f"failed")
    for error in run["errors"]:
        print(f"  check failed: {error}")
    outputs = (run["first"] or run["records"][0]).get("outputs")
    print(fidelity_line(args.workload, outputs, run["expected"] is not None))
    untraced = [r for r in run["records"] if r["mode"] == "untraced"]
    print(f"host (information only): median wall "
          f"{_median([r['wall_s'] for r in untraced]):.3f} s, cpu "
          f"{_median([r['cpu_s'] for r in untraced]):.3f} s, stolen "
          f"{_median([r['stolen_s'] for r in untraced]):.3f} s, speed "
          f"factor {_median([r['speed'] for r in untraced]):.3f} "
          f"(host speed / reference speed)")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
