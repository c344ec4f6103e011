"""``repro inspect <run-id>``: reconstruct one run's timeline.

The engine leaves one record per run under the cache root: its span
store (which jobs finished or were quarantined, and where the wall
time went — see :mod:`repro.obs.spans`), next to the content-addressed
result cache (each done job's metrics snapshot).  This module joins
the two into one report: run state, cache hit ratio, per-phase
breakdown, retry/quarantine events, slowest jobs, the critical path
and a flat timeline — as text for humans or JSON for machines.

Deliberately import-light at module init: the experiment-layer imports
happen inside :func:`inspect_run` so ``repro.obs`` never depends on
``repro.experiments`` at import time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Union


class UnknownRunError(KeyError):
    """No span store: nothing recorded under that run id."""


def _merge_cached_metrics(cache_root: Path, done_keys) -> dict:
    """Fold the cached metrics snapshots of the run's done jobs."""
    from repro.experiments.cache import ResultCache
    from repro.obs.metrics import empty_snapshot, merge_snapshots

    merged = empty_snapshot()
    cache = ResultCache(cache_root)
    for key in sorted(done_keys):
        payload = cache.get(key)
        if (isinstance(payload, dict)
                and set(payload) == {"result", "metrics"}
                and payload["metrics"]):
            merged = merge_snapshots(merged, payload["metrics"])
    return merged


def _critical_path(roots: List[dict]) -> List[dict]:
    """The max-duration child chain from the tree's slowest root."""
    path: List[dict] = []
    candidates = roots
    while candidates:
        node = max(candidates, key=lambda n: n.get("dur_s", 0.0))
        path.append({
            "name": node.get("name", ""),
            "q": node.get("q", ""),
            "dur_s": node.get("dur_s", 0.0),
        })
        candidates = node["children"]
    return path


def _summary(spans: List[dict]) -> dict:
    """Root and plan spans, state, experiment and job outcomes of a
    deduplicated store.

    The state comes from the root ``run`` span (``finished`` /
    ``partial`` / ``failed``); a run that never closed one is
    ``interrupted``.  The plan span names the experiment and run even
    for an interrupted run.
    """
    from repro.obs.spans import job_outcomes

    def first(name):
        return next((s for s in spans if s.get("name") == name), {})

    run_span, plan_span = first("run"), first("plan")
    status = run_span.get("status", "ok") if run_span else None
    done, failed = job_outcomes(spans)
    return {
        "run": run_span,
        "plan": plan_span,
        "state": ("interrupted" if status is None
                  else "finished" if status == "ok" else status),
        "experiment_id": (plan_span.get("experiment_id")
                          or run_span.get("experiment_id")),
        "done": done,
        "failed": failed,
    }


def inspect_run(cache_root: Union[str, Path], run_id: str) -> dict:
    """Everything known about ``run_id``, as one JSON-able document.

    Raises :class:`UnknownRunError` when the id has no span store.
    """
    from repro.obs.spans import (
        dedupe_spans,
        phase_seconds,
        read_spans,
        span_path,
        span_tree,
    )

    cache_root = Path(cache_root)
    spans = dedupe_spans(read_spans(span_path(cache_root, run_id)))
    if not spans:
        raise UnknownRunError(run_id)

    tree = span_tree(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.get("name"), []).append(span)
    summary = _summary(spans)
    run_span, plan_span = summary["run"], summary["plan"]

    hits = run_span.get("cache_hits")
    misses = run_span.get("cache_misses")
    attempted = (hits or 0) + (misses or 0)
    cache_doc = {
        "hits": hits,
        "misses": misses,
        "hit_ratio": round(hits / attempted, 4) if attempted else None,
    }

    phases = {
        name: {
            "count": len(by_name[name]),
            "total_s": total,
            "mean_s": round(total / len(by_name[name]), 6),
        }
        for name, total in phase_seconds(spans).items()
    }

    retries = sorted(
        (
            {
                "attempt": s.get("q", ""),
                "job": s.get("parent_id", ""),
                "error": s["error"],
                "t0": s.get("t0", 0.0),
            }
            for s in by_name.get("attempt", ())
            if "error" in s
        ),
        key=lambda r: r["t0"],
    )
    quarantined = [
        {"digest": key, "error": span.get("error"),
         "attempts": span.get("attempts"),
         "worker_crashes": span.get("worker_crashes")}
        for key, span in sorted(summary["failed"].items())
    ]

    job_spans = sorted(by_name.get("job", ()),
                       key=lambda s: s.get("dur_s", 0.0), reverse=True)
    slowest = [
        {
            "digest": s.get("digest", s.get("q", "")),
            "index": s.get("index"),
            "dur_s": s.get("dur_s", 0.0),
            "attempts": s.get("attempts", 1),
            "status": s.get("status", "done"),
        }
        for s in job_spans[:5]
    ]

    t_base = min((s.get("t0", 0.0) for s in spans), default=0.0)
    timeline = [
        {
            "t": round(s.get("t0", 0.0) - t_base, 6),
            "name": s.get("name", ""),
            "q": s.get("q", ""),
            "dur_s": s.get("dur_s", 0.0),
            **({"error": s["error"]} if "error" in s else {}),
            **({"status": s["status"]} if "status" in s else {}),
        }
        for s in sorted(spans, key=lambda s: (s.get("t0", 0.0),
                                              s.get("name", "")))
    ]

    merged = _merge_cached_metrics(cache_root, summary["done"])
    interesting = {
        name: value
        for name, value in merged.get("counters", {}).items()
        if name.startswith(("sim.", "refresh.", "engine."))
    }

    return {
        "run_id": run_id,
        "trace_id": spans[0].get("trace_id"),
        "experiment_id": summary["experiment_id"],
        "state": summary["state"],
        "wall_s": run_span.get("dur_s"),
        "jobs": {
            # the plan span carries the count; legacy runs only stamp
            # it on the root span
            "planned": (plan_span or run_span).get("planned"),
            "done": len(summary["done"]),
            "failed": len(summary["failed"]),
        },
        "cache": cache_doc,
        "phases": phases,
        "retries": retries,
        "quarantined": quarantined,
        "slowest_jobs": slowest,
        "critical_path": _critical_path(tree),
        "timeline": timeline,
        "counters": interesting,
    }


def list_runs(cache_root: Union[str, Path]) -> List[dict]:
    """Every run with a span store under ``cache_root``, newest first.

    The run id is the one recorded on the plan span (a store of an id
    that is not filename-safe is named by its hash), falling back to
    the file stem for a store without one.
    """
    from repro.obs.spans import dedupe_spans, read_spans, spans_dir

    stamped = []
    for path in spans_dir(cache_root).glob("*.jsonl"):
        try:
            stamped.append((path.stat().st_mtime, path))
        except OSError:
            continue
    rows: List[dict] = []
    for mtime, path in sorted(stamped, key=lambda mp: (-mp[0], mp[1].stem)):
        summary = _summary(dedupe_spans(read_spans(path)))
        rows.append({
            "run_id": summary["plan"].get("run_id", path.stem),
            "state": summary["state"],
            "experiment_id": summary["experiment_id"],
            "done": len(summary["done"]),
            "failed": len(summary["failed"]),
            "mtime": mtime,
        })
    return rows


def render_run_list(rows: List[dict]) -> str:
    """The human-readable ``repro inspect --list`` table."""
    if not rows:
        return "no recorded runs"
    lines = [f"{'run id':<28} {'state':<16} {'experiment':<10} "
             f"{'done':>5} {'failed':>6}"]
    for row in rows:
        lines.append(
            f"{row['run_id']:<28} {row['state']:<16} "
            f"{row.get('experiment_id') or '-':<10} "
            f"{row['done']:>5} {row['failed']:>6}")
    return "\n".join(lines)


def render_report(doc: dict) -> str:
    """The human-readable ``repro inspect`` view of one run document."""
    lines = []
    wall = doc.get("wall_s")
    lines.append(
        f"run {doc['run_id']}  (trace {doc.get('trace_id') or '-'})")
    lines.append(
        f"  experiment: {doc.get('experiment_id') or '-'}"
        f"   state: {doc['state']}"
        + (f"   wall: {wall:.3f}s" if wall is not None else ""))
    jobs = doc["jobs"]
    cache = doc["cache"]
    ratio = cache.get("hit_ratio")
    def n(value):
        return "?" if value is None else value

    lines.append(
        f"  jobs: {n(jobs.get('planned'))} planned, "
        f"{jobs['done']} done, {jobs['failed']} failed"
        f"   cache: {n(cache.get('hits'))} hits / "
        f"{n(cache.get('misses'))} misses"
        + (f" ({ratio:.0%} hit)" if ratio is not None else ""))
    if doc["phases"]:
        lines.append("  phases:")
        lines.append(f"    {'phase':<10} {'count':>5} {'total_s':>10} "
                     f"{'mean_s':>10}")
        for name, p in sorted(doc["phases"].items()):
            lines.append(f"    {name:<10} {p['count']:>5} "
                         f"{p['total_s']:>10.4f} {p['mean_s']:>10.4f}")
    if doc["retries"]:
        lines.append(f"  retries ({len(doc['retries'])}):")
        for r in doc["retries"]:
            lines.append(f"    attempt {r['attempt']}: {r['error']}")
    if doc["quarantined"]:
        lines.append(f"  quarantined ({len(doc['quarantined'])}):")
        for q in doc["quarantined"]:
            lines.append(
                f"    {q['digest'][:12]}: {q.get('error', '?')} "
                f"({q.get('attempts', '?')} attempts)")
    if doc["slowest_jobs"]:
        lines.append("  slowest jobs:")
        for j in doc["slowest_jobs"]:
            lines.append(
                f"    {str(j['digest'])[:12]:<12} {j['dur_s']:>8.3f}s "
                f"{j['attempts']} attempt(s)  {j['status']}")
    if doc["critical_path"]:
        chain = " > ".join(
            f"{n['name']}" + (f"[{n['q'][:8]}]" if n["q"] else "")
            for n in doc["critical_path"])
        lines.append(f"  critical path: {chain}")
    if doc["timeline"]:
        lines.append("  timeline:")
        for ev in doc["timeline"]:
            mark = ""
            if "error" in ev:
                mark = f"  ERROR {ev['error']}"
            elif "status" in ev and ev["status"] != "done":
                mark = f"  {ev['status']}"
            q = f"[{str(ev['q'])[:8]}]" if ev["q"] else ""
            lines.append(
                f"    t+{ev['t']:>8.3f}s  {ev['name']}{q} "
                f"({ev['dur_s']:.3f}s){mark}")
    if doc["counters"]:
        shown = sorted(doc["counters"].items())[:8]
        lines.append("  counters: " + ", ".join(
            f"{k}={v:g}" for k, v in shown))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro inspect",
        description="Reconstruct a run's timeline from its span store "
                    "and cached metrics.",
    )
    parser.add_argument("run_id", nargs="?", default=None,
                        help="run id (printed on stderr / "
                             "X-Repro-Run-Id)")
    parser.add_argument("--list", action="store_true", dest="list_runs",
                        help="enumerate recorded runs, newest first")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root (default: $REPRO_CACHE_DIR or "
                             ".repro-cache)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full document as JSON")
    args = parser.parse_args(argv)

    from repro.experiments.cache import default_cache_dir

    cache_root = (Path(args.cache_dir) if args.cache_dir
                  else default_cache_dir())
    if args.list_runs:
        if args.run_id is not None:
            parser.error("--list takes no run id")
        rows = list_runs(cache_root)
        try:
            if args.json:
                print(json.dumps(rows, sort_keys=True, indent=2))
            else:
                print(render_run_list(rows))
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    if args.run_id is None:
        parser.error("give a run id, or --list to enumerate runs")
    try:
        doc = inspect_run(cache_root, args.run_id)
    except UnknownRunError:
        print(f"unknown run {args.run_id!r}: no span store "
              f"under {cache_root}", file=sys.stderr)
        return 1
    try:
        if args.json:
            print(json.dumps(doc, sort_keys=True, indent=2))
        else:
            print(render_report(doc))
        sys.stdout.flush()
    except BrokenPipeError:
        # reader (e.g. `| head`) went away — not an error for a report CLI
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":  # pragma: no cover - python -m repro.obs.inspect
    sys.exit(main())
