"""Hierarchical wall-clock spans with explicit trace-context propagation.

Probe events (:mod:`repro.obs.probes`) answer *what happened* on the
simulated clock; spans answer *where the wall time went* across the real
stack: serve request → lifecycle attempt → engine job → pool worker →
simulation phase (:data:`PHASE_NAMES`).  Spans are the only wall-clock
record: the probe bus holds none.  A :class:`SpanContext` carries
``(trace_id, span_id, parent_id)`` across process boundaries as a plain
dict, so a pool worker can attach its phases under the exact attempt
span the runner opened for it.

Determinism is the load-bearing design decision.  ``trace_id`` is a pure
function of the run id, and every span id is a pure function of
``(trace_id, parent_id, name, qualifier)``:

* a **rerun** of the same plan re-mints the same trace and re-emits
  structural spans (``run``/``plan``/``reduce``) under the same ids, so
  the span store — an append-only JSONL file per run id that keeps
  every run of its plan — deduplicates by ``span_id`` into one
  coherent tree;
* ``--jobs 4`` and ``--jobs 1`` produce the *same tree* (parentage and
  names, not timings), which the propagation tests assert;
* a killed worker's partial spans simply never get written (spans emit
  on completion), so crash debris cannot corrupt the tree.

Qualifiers disambiguate repeats: a job span is qualified by its digest,
an attempt span by its attempt number, a phase by its occurrence index
within the enclosing span.  :func:`span_tree` rebuilds the nested
structure from records, :func:`tree_signature` reduces it to the
timing-free shape used for equality properties and
:func:`phase_seconds` totals the phases (``--profile``,
``BENCH_sim.json``, ``repro inspect``).

The span store is also the run's only durable record: the ``plan``
span carries the plan and settings digests and ``done``/``cached``/
``quarantined`` job spans carry the outcome of every job, which
:func:`load_run` reads back when the next run of the id opens it.

Like the probe bus, the tracer is ambient per process
(:func:`get_tracer`/:func:`use_tracer`) and defaults to
:data:`NULL_TRACER`, a no-op cheap enough for hot paths.
"""

from __future__ import annotations

import hashlib
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

ID_WIDTH = 16
ROOT_PARENT = ""
"""``parent_id`` of a root span."""

PHASE_NAMES = ("populate", "warmup", "measure")
"""The spans that time a simulation's phases: writing the allocated
pages through the value transformation, the unmeasured warmup windows
and the measured windows."""


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:ID_WIDTH]


def trace_id_for_run(run_id: str) -> str:
    """Deterministic trace id: reruns of ``run_id`` join the same trace."""
    return _digest(f"trace:{run_id}")


def span_id_for(trace_id: str, parent_id: str, name: str,
                qualifier: str = "") -> str:
    """Deterministic span id — identical across fan-out and reruns."""
    return _digest(f"span:{trace_id}:{parent_id}:{name}:{qualifier}")


@dataclass(frozen=True)
class SpanContext:
    """Position in a trace; the unit shipped across process boundaries."""

    trace_id: str
    span_id: str
    parent_id: str = ROOT_PARENT
    name: str = ""
    qualifier: str = ""

    def to_wire(self) -> dict:
        """Plain picklable dict for worker payloads / HTTP state."""
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id, "name": self.name,
                "qualifier": self.qualifier}

    @classmethod
    def from_wire(cls, wire: dict) -> "SpanContext":
        return cls(trace_id=wire["trace_id"], span_id=wire["span_id"],
                   parent_id=wire.get("parent_id", ROOT_PARENT),
                   name=wire.get("name", ""),
                   qualifier=wire.get("qualifier", ""))

    def child(self, name: str, qualifier: str = "") -> "SpanContext":
        return SpanContext(
            trace_id=self.trace_id,
            span_id=span_id_for(self.trace_id, self.span_id, name, qualifier),
            parent_id=self.span_id, name=name, qualifier=qualifier)


def root_context(trace_id: str, name: str = "run") -> SpanContext:
    return SpanContext(
        trace_id=trace_id,
        span_id=span_id_for(trace_id, ROOT_PARENT, name, ""),
        parent_id=ROOT_PARENT, name=name, qualifier="")


class SpanTracer:
    """Records completed spans as flat JSON-able dicts.

    One record per span, emitted when the span *finishes* — in-flight
    spans leave no trace, which is exactly the crash semantics the
    store's dedup relies on.  Records accumulate in :attr:`records` and,
    when a ``sink`` is attached (any object with ``emit``/``close``,
    e.g. :class:`repro.obs.probes.JsonlTraceSink`), stream to it too.

    ``clock`` is injectable for tests; it must return wall-clock epoch
    seconds like :func:`time.time`.
    """

    def __init__(self, trace_id: str, sink=None, clock=time.time):
        self.trace_id = trace_id
        self.sink = sink
        self.clock = clock
        self.records: List[dict] = []
        self._stack: List[SpanContext] = []
        self._occurrences: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return True

    @property
    def current(self) -> Optional[SpanContext]:
        """Innermost open span context, if any."""
        return self._stack[-1] if self._stack else None

    def context(self, name: str, parent: Optional[SpanContext] = None,
                qualifier: Optional[str] = None) -> SpanContext:
        """Mint a child context under ``parent`` (default: current/root).

        When ``qualifier`` is ``None`` an occurrence index is assigned:
        the first ``measure`` under a parent is qualified ``"0"``, the
        next ``"1"`` — deterministic as long as execution order within
        the parent is.  Pass an explicit qualifier (digest, attempt
        number) when the caller has a natural key.
        """
        if parent is None:
            parent = self.current
        parent_id = parent.span_id if parent is not None else ROOT_PARENT
        if qualifier is None:
            key = (parent_id, name)
            n = self._occurrences.get(key, 0)
            self._occurrences[key] = n + 1
            qualifier = str(n)
        return SpanContext(
            trace_id=self.trace_id,
            span_id=span_id_for(self.trace_id, parent_id, name, qualifier),
            parent_id=parent_id, name=name, qualifier=qualifier)

    # ------------------------------------------------------------------
    def _emit(self, record: dict) -> None:
        self.records.append(record)
        if self.sink is not None:
            self.sink.emit(record)

    def emit_context(self, ctx: SpanContext, t0: float, dur_s: float,
                     **attrs) -> dict:
        """Record a finished span for an already-minted context."""
        record = {k: v for k, v in attrs.items() if v is not None}
        record.update(
            trace_id=ctx.trace_id, span_id=ctx.span_id,
            parent_id=ctx.parent_id, name=ctx.name, q=ctx.qualifier,
            t0=round(t0, 6), dur_s=round(dur_s, 6))
        self._emit(record)
        return record

    def record_span(self, name: str, parent: Optional[SpanContext] = None,
                    qualifier: Optional[str] = None, *,
                    t0: float, dur_s: float, **attrs) -> SpanContext:
        """Fabricate a span retroactively (failed attempt, plan phase)."""
        ctx = self.context(name, parent=parent, qualifier=qualifier)
        self.emit_context(ctx, t0, dur_s, **attrs)
        return ctx

    @contextmanager
    def span(self, name: str, parent: Optional[SpanContext] = None,
             qualifier: Optional[str] = None,
             **attrs) -> Iterator[SpanContext]:
        """Open a span around the block; records on exit, even on error."""
        ctx = self.context(name, parent=parent, qualifier=qualifier)
        self._stack.append(ctx)
        t0 = self.clock()
        try:
            yield ctx
        except BaseException as exc:
            attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            self._stack.pop()
            self.emit_context(ctx, t0, self.clock() - t0, **attrs)

    def add_records(self, records) -> None:
        """Fold spans recorded elsewhere (a pool worker) into this tracer."""
        for record in records:
            self._emit(dict(record))

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


class _NullTracer:
    """No-op tracer: the ambient default.  Mirrors :data:`NULL_PROBES`."""

    enabled = False
    trace_id = ""
    records: List[dict] = []
    current = None

    def context(self, name, parent=None, qualifier=None) -> SpanContext:
        return SpanContext(trace_id="", span_id="", parent_id=ROOT_PARENT,
                           name=name, qualifier=qualifier or "")

    def emit_context(self, ctx, t0, dur_s, **attrs) -> dict:
        return {}

    def record_span(self, name, parent=None, qualifier=None, *,
                    t0, dur_s, **attrs) -> SpanContext:
        return self.context(name, parent, qualifier)

    @contextmanager
    def span(self, name, parent=None, qualifier=None, **attrs):
        yield self.context(name, parent, qualifier)

    def add_records(self, records) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = _NullTracer()
"""Shared no-op tracer; safe anywhere a :class:`SpanTracer` fits."""

_ACTIVE: Optional[SpanTracer] = None


def get_tracer():
    """The ambient tracer, or :data:`NULL_TRACER` when none is installed."""
    return _ACTIVE if _ACTIVE is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer: SpanTracer) -> Iterator[SpanTracer]:
    """Install ``tracer`` as the ambient span tracer for the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# span store: <cache-root>/spans/<run-id>.jsonl, append-only
# ----------------------------------------------------------------------

_SAFE_RUN_ID = re.compile(r"[A-Za-z0-9._-]{1,128}")


def run_file_stem(run_id: str) -> str:
    """File name stem for ``run_id``'s store and lock files.

    Filename-safe ids of up to 128 characters are their own stem;
    anything else (spaces, slashes, an unbounded scenario id) is
    hashed, so every run id maps to a valid, bounded file name.
    """
    if _SAFE_RUN_ID.fullmatch(run_id):
        return run_id
    return "x" + _digest(f"run:{run_id}")


def spans_dir(cache_root: Union[str, Path]) -> Path:
    return Path(cache_root) / "spans"


def span_path(cache_root: Union[str, Path], run_id: str) -> Path:
    """The run's store file: ``<cache-root>/spans/<stem>.jsonl``."""
    return spans_dir(cache_root) / f"{run_file_stem(run_id)}.jsonl"


def append_spans(cache_root: Union[str, Path], run_id: str,
                 records) -> Path:
    """Append finished span records (sealed) to the run's store file."""
    from repro.obs.probes import JsonlTraceSink

    sink = JsonlTraceSink(span_path(cache_root, run_id), append=True,
                          checksum=True)
    for record in records:
        sink.emit(record)
    sink.close()
    return sink.path


def _scan(path: Union[str, Path]) -> Tuple[List[dict], int]:
    """``(span records, damaged line count)`` of one store file."""
    from repro.store.envelope import count_corruption, open_record

    records: List[dict] = []
    damaged = 0
    path = Path(path)
    if not path.exists():
        return records, damaged
    try:
        # errors="replace", not strict: a flipped byte that lands on a
        # multi-byte boundary must classify as damage, not raise
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        from repro.obs import get_probes

        get_probes().count("store.read_errors")
        return records, damaged
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        record, damage = open_record(line)
        if record is None:
            damaged += 1
            count_corruption(damage, store="spans", path=path)
            continue
        if "span_id" in record:
            records.append(record)
    return records, damaged


def read_spans(path: Union[str, Path]) -> List[dict]:
    """Load span records, skipping damaged lines with the class counted.

    Sealed lines (written with an embedded ``"_sha"`` digest) are
    verified before use; unsealed lines from older stores still load.
    A line that fails — torn by a crash or flipped on disk — is
    dropped and counted on the ambient ``store.corrupt.<class>``
    counter, never surfaced as a span.
    """
    return _scan(path)[0]


def job_outcomes(spans) -> Tuple[Set[str], Dict[str, dict]]:
    """Done job keys and quarantined jobs (key → span) of a deduplicated
    store: a ``done`` or ``cached`` job span is the promise that the
    job's result is in the cache."""
    done: Set[str] = set()
    failed: Dict[str, dict] = {}
    for span in spans:
        if span.get("name") != "job":
            continue
        key = span.get("digest", span.get("q", ""))
        status = span.get("status")
        if status == "quarantined":
            failed[key] = span
        elif status in ("done", "cached"):
            done.add(key)
    return done, failed


@dataclass
class RunState:
    """What a run's span store promises the next run of its id."""

    plan_digest: str
    done: Set[str]
    failed: Dict[str, dict]
    damaged: int
    """Store lines that failed verification (torn or flipped)."""


def load_run(cache_root: Union[str, Path],
             run_id: str) -> Optional[RunState]:
    """Recorded state of ``run_id``; ``None`` without a verified plan span.

    The ``plan`` span, written at run start, binds the store to its
    plan digest; job spans carry the done set and the quarantines.
    Damaged lines are skipped, so the state is built from every line
    that verified, and counted in :attr:`RunState.damaged`.
    """
    records, damaged = _scan(span_path(cache_root, run_id))
    spans = dedupe_spans(records)
    plan = next((s for s in spans
                 if s.get("name") == "plan" and "plan_digest" in s), None)
    if plan is None:
        return None
    done, failed = job_outcomes(spans)
    return RunState(plan["plan_digest"], done, failed, damaged)


def dedupe_spans(records) -> List[dict]:
    """Collapse re-emitted structural spans: last record per id wins."""
    by_id: Dict[str, dict] = {}
    for record in records:
        by_id[record["span_id"]] = record
    return list(by_id.values())


def phase_seconds(records) -> Dict[str, float]:
    """Wall seconds per phase, summed over the spans in :data:`PHASE_NAMES`.

    Other spans are ignored and a span re-emitted under one id counts
    once.  Keys are sorted; a phase that never ran is absent.
    """
    totals: Dict[str, float] = {}
    for record in dedupe_spans(records):
        name = record.get("name")
        if name in PHASE_NAMES:
            totals[name] = totals.get(name, 0.0) + record.get("dur_s", 0.0)
    return {name: round(totals[name], 6) for name in sorted(totals)}


def span_tree(records) -> List[dict]:
    """Nest deduplicated records into ``{record..., "children": [...]}``.

    Children are ordered by ``(t0, name, q)`` so reconstruction is
    stable across record arrival order.  Orphans (parent never emitted,
    e.g. the root of a run killed mid-flight) surface as extra roots.
    """
    deduped = dedupe_spans(records)
    nodes = {r["span_id"]: dict(r, children=[]) for r in deduped}
    roots: List[dict] = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id") or "")
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)

    def sort_key(node):
        return (node.get("t0", 0.0), node.get("name", ""), node.get("q", ""))

    def sort_rec(nodes_):
        nodes_.sort(key=sort_key)
        for n in nodes_:
            sort_rec(n["children"])

    sort_rec(roots)
    return roots


def tree_signature(records) -> tuple:
    """Timing-free shape of the span tree: nested ``(name, q, children)``.

    Two runs with the same signature did the same *work* in the same
    causal structure, whatever the wall clock said.  Children are
    sorted by ``(name, q)`` so scheduling order is irrelevant — the
    property the ``--jobs 1`` vs ``--jobs 4`` tests assert.
    """
    def sig(node) -> tuple:
        children = tuple(sorted(sig(c) for c in node["children"]))
        return (node.get("name", ""), node.get("q", ""), children)

    return tuple(sorted(sig(root) for root in span_tree(records)))
