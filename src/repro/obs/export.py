"""Export probe event streams as Chrome-trace / Perfetto JSON.

The ``--trace`` JSONL stream is convenient to grep but invisible to
timeline tooling.  This module converts it into the Chrome Trace Event
format (the JSON flavour Perfetto's https://ui.perfetto.dev loads
directly): every probe event becomes an *instant* event placed on the
**simulated** clock — one trace microsecond per simulated microsecond —
so two runs of the same experiment produce byte-identical traces.

Track layout:

* process = kernel (the ``kernel`` field probe events carry: the
  refresh scheme or rank name), with a ``process_name`` metadata
  record;
* thread  = bank (the ``bank`` field), thread 0 for bank-less events;
* counter tracks (``ph: "C"``) are synthesised from the numeric fields
  named in :data:`COUNTER_FIELDS` — per-window refreshed/skipped group
  counts plot as stacked area charts in Perfetto.

Span records (:mod:`repro.obs.spans`) convert too: each span becomes a
*complete* (``ph: "X"``) slice on the **wall** clock, grouped on a
dedicated ``spans:<trace-id>`` process track so the causal tree of a
run sits next to its simulated-time event tracks.  Pass them via
``write_chrome_trace(..., span_records=...)`` or point the CLI at a
span store JSONL directly.

Use from the CLI (``python -m repro.experiments ... --trace-chrome
out.json``) or standalone::

    python -m repro.obs.export repro-trace.jsonl -o trace.chrome.json
    python -m repro.obs.export .repro-cache/spans/<run-id>.jsonl \\
        -o run.chrome.json
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

US_PER_SIM_SECOND = 1_000_000
"""Trace timestamps are integers in microseconds of simulated time."""

COUNTER_FIELDS: Dict[str, Sequence[str]] = {
    "sim.window": ("refreshed", "skipped"),
    "refresh.ar": ("refreshed",),
    "refresh.status_renewal": ("discharged",),
}
"""Event fields promoted to Chrome counter tracks, by event name."""

_META_FIELDS = ("event", "seq", "t", "kernel", "bank")

_SPAN_META_FIELDS = (
    "trace_id", "span_id", "parent_id", "name", "q", "t0", "dur_s",
)


def _job_lanes(records: List[dict]) -> Dict[str, int]:
    """Thread lane per ``job`` span, in deterministic start order."""
    jobs = sorted(
        (r for r in records if r.get("name") == "job"),
        key=lambda r: (r.get("t0", 0.0), str(r.get("span_id", ""))),
    )
    return {str(r.get("span_id", "")): i + 1 for i, r in enumerate(jobs)}


def span_chrome_events(span_records: Iterable[dict],
                       first_pid: int = 1000) -> List[dict]:
    """Span records as Chrome *complete* (``ph: "X"``) slices.

    Spans live on the wall clock; timestamps are rebased to the
    earliest span so the track starts at zero.  Each trace gets its own
    process (``spans:<trace-id>``, pids from ``first_pid`` up — clear
    of the kernel pids :func:`chrome_trace` assigns); each ``job``
    subtree gets its own thread lane so parallel jobs render as
    side-by-side nested slices instead of fighting over one lane.
    """
    from repro.obs.spans import dedupe_spans

    records = dedupe_spans(span_records)
    if not records:
        return []
    events: List[dict] = []
    t_base = min(r.get("t0", 0.0) for r in records)
    by_id = {str(r.get("span_id", "")): r for r in records}
    lanes = _job_lanes(records)
    pids: Dict[str, int] = {}
    for record in records:
        trace_id = str(record.get("trace_id", "") or "trace")
        if trace_id not in pids:
            pids[trace_id] = first_pid + len(pids)
            events.append({
                "name": "process_name", "ph": "M", "pid": pids[trace_id],
                "tid": 0, "args": {"name": f"spans:{trace_id}"},
            })
        # lane: the enclosing job subtree's lane; 0 for run/plan/reduce
        # and the serve.* spans that hang straight off the root
        lane = 0
        node, hops = record, 0
        while node is not None and hops < 64:
            lane = lanes.get(str(node.get("span_id", "")), 0)
            if lane or node.get("name") == "job":
                break
            node = by_id.get(str(node.get("parent_id", "")))
            hops += 1
        name = str(record.get("name", "span"))
        q = str(record.get("q", "") or "")
        args = {k: v for k, v in record.items()
                if k not in _SPAN_META_FIELDS}
        events.append({
            "name": f"{name} {q[:12]}" if q else name,
            "cat": "span",
            "ph": "X",
            "ts": round((record.get("t0", 0.0) - t_base) * 1e6, 3),
            "dur": round(record.get("dur_s", 0.0) * 1e6, 3),
            "pid": pids[trace_id],
            "tid": lane,
            "args": args,
        })
    return events


def chrome_trace(records: Iterable[dict],
                 span_records: Optional[Iterable[dict]] = None) -> dict:
    """Convert probe event records into a Chrome trace document.

    ``records`` are the parsed JSONL lines (or
    :class:`~repro.obs.probes.ListTraceSink` records).  Events without a
    simulated-time ``t`` field land at t=0; ordering within a timestamp
    follows the input (``seq``) order, which Chrome's format permits.

    ``span_records`` optionally merges a run's wall-clock span tree
    (see :func:`span_chrome_events`) into the same document, on its own
    process tracks.
    """
    events: List[dict] = []
    pids: Dict[str, int] = {}
    for record in records:
        name = str(record.get("event", "event"))
        ts = float(record.get("t", 0.0)) * US_PER_SIM_SECOND
        kernel = str(record.get("kernel", "") or "sim")
        if kernel not in pids:
            pids[kernel] = len(pids) + 1
            events.append({
                "name": "process_name", "ph": "M", "pid": pids[kernel],
                "tid": 0, "args": {"name": kernel},
            })
        pid = pids[kernel]
        tid = int(record.get("bank", 0))
        args = {k: v for k, v in record.items() if k not in _META_FIELDS}
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "i",
            "s": "t",
            "ts": ts,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
        for field in COUNTER_FIELDS.get(name, ()):
            if field in record:
                events.append({
                    "name": f"{name}.{field}",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": 0,
                    "args": {field: record[field]},
                })
    if span_records is not None:
        events.extend(span_chrome_events(span_records))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "source": "repro.obs"},
    }


def read_jsonl(path: Union[str, Path]) -> List[dict]:
    """Parse a probe-trace or span-store JSONL file into records.

    Every line goes through :func:`repro.store.envelope.open_record`,
    the check :func:`repro.obs.spans.read_spans` makes: a sealed line is
    verified and loses its ``"_sha"`` seal, an unsealed ``--trace`` line
    loads as it is, and a damaged line (the torn tail a killed run
    leaves, a flipped bit) is dropped and counted on the ambient
    ``store.corrupt.<class>`` counter.
    """
    from repro.store.envelope import count_corruption, open_record

    path = Path(path)
    records = []
    # errors="replace": a flipped byte must classify as damage, not raise
    with path.open(encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record, damage = open_record(line)
            if record is None:
                count_corruption(damage, store="trace", path=path)
            else:
                records.append(record)
    return records


def write_chrome_trace(
    records: Iterable[dict],
    path: Union[str, Path],
    span_records: Optional[Iterable[dict]] = None,
) -> int:
    """Write records as a Chrome trace file; returns the event count."""
    payload = chrome_trace(records, span_records=span_records)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                    encoding="utf-8")
    return len(payload["traceEvents"])


def convert_jsonl(src: Union[str, Path], dst: Union[str, Path]) -> int:
    """Convert a JSONL probe trace into a Chrome trace file.

    Span-store files (records carrying ``span_id``) are detected per
    line, so pointing this at ``<cache>/spans/<run-id>.jsonl`` — or at
    a mixed stream — does the right thing.
    """
    records = read_jsonl(src)
    spans = [r for r in records if "span_id" in r]
    events = [r for r in records if "span_id" not in r]
    return write_chrome_trace(events, dst, span_records=spans or None)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Convert a JSONL probe trace to Chrome-trace/Perfetto "
                    "JSON (open at https://ui.perfetto.dev).",
    )
    parser.add_argument("trace", type=Path, help="JSONL probe trace file")
    parser.add_argument("-o", "--out", type=Path, default=None,
                        help="output path (default: <trace>.chrome.json)")
    args = parser.parse_args(argv)
    out = args.out if args.out is not None else args.trace.with_suffix(
        args.trace.suffix + ".chrome.json"
    )
    n = convert_jsonl(args.trace, out)
    print(f"{out}: {n} trace events")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
