"""Observability — probe bus, spans, metrics — ambient activation.

Components accept a ``probes`` argument and default to the ambient bus,
so instrumentation normally flows in one of two ways:

* explicitly — build a :class:`ProbeBus` and hand it to
  :class:`~repro.core.zero_refresh.ZeroRefreshSystem` (or
  ``repro.api.run(RunRequest(..., probes=...))``);
* ambiently — ``with repro.obs.instrument(trace="run.jsonl") as bus:``
  installs the bus as the process default picked up by every system
  constructed inside the block (what the ``--trace``/``--trace-chrome``
  CLI flags do).

A bus built with ``checks=True`` also records runtime invariant checks
(:meth:`ProbeBus.check`); ``Runner(watchdog=True)`` gives every job one.

The ambient bus is per-process, but since PR 3 that no longer limits
fan-out: the experiment engine runs every job under its own bus, ships
each job's :meth:`ProbeBus.snapshot` back with the result, and merges
the snapshots (``repro.obs.metrics.merge_snapshots``) into a run-level
metrics manifest — counters, histograms and gauges from a ``jobs=4``
run merge to exactly the ``jobs=1`` numbers, and cached jobs replay
their stored metrics.  Snapshots hold no wall-clock time: where the
time went is recorded only as spans.  Tooling around the bus:

* :mod:`repro.obs.spans` — deterministic wall-clock span trees, the
  one timing mechanism (``phase_seconds`` feeds ``--profile``);
* :mod:`repro.obs.metrics` — histogram/gauge types and the snapshot
  algebra;
* :mod:`repro.obs.export` — JSONL trace → Chrome-trace/Perfetto.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.obs.metrics import (
    Gauge,
    Histogram,
    empty_snapshot,
    merge_snapshots,
    prometheus_text,
    register_histogram,
)
from repro.obs.probes import (
    NULL_PROBES,
    JsonlTraceSink,
    ListTraceSink,
    ProbeBus,
)
from repro.obs.spans import (
    NULL_TRACER,
    SpanContext,
    SpanTracer,
    get_tracer,
    span_tree,
    trace_id_for_run,
    tree_signature,
    use_tracer,
)

__all__ = [
    "Gauge",
    "Histogram",
    "JsonlTraceSink",
    "ListTraceSink",
    "NULL_PROBES",
    "NULL_TRACER",
    "ProbeBus",
    "SpanContext",
    "SpanTracer",
    "empty_snapshot",
    "get_probes",
    "get_tracer",
    "instrument",
    "merge_snapshots",
    "prometheus_text",
    "register_histogram",
    "span_tree",
    "trace_id_for_run",
    "tree_signature",
    "use_probes",
    "use_tracer",
]

_ACTIVE: Optional[ProbeBus] = None


def get_probes():
    """The ambient bus, or :data:`NULL_PROBES` when none is installed."""
    return _ACTIVE if _ACTIVE is not None else NULL_PROBES


@contextmanager
def use_probes(bus: ProbeBus) -> Iterator[ProbeBus]:
    """Install ``bus`` as the ambient probe bus for the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = bus
    try:
        yield bus
    finally:
        _ACTIVE = previous


@contextmanager
def instrument(trace: Optional[Union[str, object]] = None) -> Iterator[ProbeBus]:
    """Build, install and (on exit) close an instrumentation bus.

    ``trace`` may be a path or open file for the JSONL event stream;
    ``None`` keeps counters, histograms and gauges without event output.
    """
    sink = None
    if trace is not None:
        if isinstance(trace, (JsonlTraceSink, ListTraceSink)):
            sink = trace
        else:
            sink = JsonlTraceSink(trace)
    bus = ProbeBus(trace=sink)
    try:
        with use_probes(bus):
            yield bus
    finally:
        bus.close()
