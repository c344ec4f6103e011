"""Probe bus: counters, histograms, gauges and trace events.

Instrumentation in this codebase is *observational by construction*: a
:class:`ProbeBus` only ever records what the simulation tells it and
never draws randomness or feeds values back, so an instrumented run is
bit-identical to an uninstrumented one (a property the parity tests
assert).  Components take a bus at construction time and default to
:data:`NULL_PROBES`, a no-op singleton cheap enough to leave the calls
in hot paths.

Four facilities share the bus:

* **counters** — ``bus.count("refresh.groups_skipped", n)``; dotted
  names, ``<subsystem>.<quantity>``, accumulated over the bus lifetime;
* **histograms** — ``bus.observe("sim.window_skip_rate", 0.4)``;
  fixed-bucket distributions (see :mod:`repro.obs.metrics` for the
  bounds registry) for quantities whose *shape* matters;
* **gauges** — ``bus.gauge("sys.allocated_fraction", 0.7)``; last
  value plus a min/max envelope;
* **events** — ``bus.event("refresh.ar", bank=0, ...)`` appends one
  JSON line to the attached :class:`JsonlTraceSink` (the ``--trace``
  stream).  Events carry *simulated* time where available, never wall
  time, so traces are deterministic; a monotone ``seq`` field orders
  them.  Guard construction of expensive event payloads with
  ``bus.tracing``.

The bus holds no wall-clock time at all: where the time went is the
job of spans (:mod:`repro.obs.spans`), so a snapshot is a pure function
of the simulation.  :meth:`ProbeBus.snapshot` returns the bus state as a
JSON-able dict; snapshots merge via
:func:`repro.obs.metrics.merge_snapshots`, which is how per-worker
metrics captured by the experiment engine become one run-level
manifest.  :meth:`ProbeBus.fork` creates a child bus for per-job
capture whose events still flow to this bus's sink;
``bus.merge_snapshot(child.snapshot())`` folds the child back in.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from types import MappingProxyType
from typing import Dict, List, Optional, TextIO, Union

from repro.obs.metrics import Gauge, Histogram, bounds_for


def _ends_mid_line(path: Path) -> bool:
    """Whether ``path`` exists and its last byte is not a newline."""
    try:
        with path.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"
    except OSError:  # missing or empty
        return False


class JsonlTraceSink:
    """Writes probe events as JSON lines to a path or open file.

    ``flush_every=N`` flushes the underlying file after every N records
    so a trace survives a worker crash (off by default: flushing every
    line costs syscalls a ``--trace`` stream doesn't need — the
    engine's span store arms ``1``).  ``append=True`` opens an
    owned path in append mode, for stores shared across reruns; a
    file left ending mid-line (a writer killed mid-record) first gets
    a line break, so the torn fragment stays one damaged line and the
    first appended record is not glued onto it.
    ``checksum=True`` seals each line with an embedded record digest
    (:func:`repro.store.envelope.seal_record`) so readers can detect
    bit flips; the engine's durable span store arms it.

    A write failure (ENOSPC, EIO) degrades the sink — further records
    are dropped with one warning, a ``store.degraded`` gauge and a
    ``store.append_errors`` count — rather than crashing the traced run.
    """

    def __init__(self, target: Union[str, Path, TextIO], *,
                 flush_every: Optional[int] = None, append: bool = False,
                 checksum: bool = False):
        if flush_every is not None and flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        if hasattr(target, "write"):
            self._fh: TextIO = target
            self._owns = False
            self.path: Optional[Path] = None
        else:
            self.path = Path(target)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            torn = append and _ends_mid_line(self.path)
            self._fh = self.path.open("a" if append else "w",
                                      encoding="utf-8")
            self._owns = True
            if torn:
                self._fh.write("\n")
        self._closed = False
        self.flush_every = flush_every
        self.checksum = checksum
        self.events_written = 0
        self.degraded = False

    def emit(self, record: dict) -> None:
        if self.degraded:
            return
        if self.checksum:
            from repro.store.envelope import seal_record

            line = seal_record(record)
        else:
            line = json.dumps(record, sort_keys=True)
        try:
            self._fh.write(line + "\n")
            self.events_written += 1
            if (self.flush_every is not None
                    and self.events_written % self.flush_every == 0):
                self._fh.flush()
        except OSError as exc:
            from repro.obs import get_probes

            self.degraded = True
            probes = get_probes()
            probes.count("store.append_errors")
            probes.gauge("store.degraded", 1)
            target = self.path if self.path is not None else "<stream>"
            warnings.warn(
                f"trace sink at {target} is degraded "
                f"({type(exc).__name__}: {exc}); further trace records "
                f"will be dropped",
                RuntimeWarning,
                stacklevel=2,
            )

    def close(self) -> None:
        """Flush (and close an owned file); safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        try:
            self._fh.flush()
        except OSError:
            self.degraded = True
        if self._owns:
            try:
                self._fh.close()
            except OSError:
                pass


class ListTraceSink:
    """Keeps probe events in memory — for export pipelines and tests.

    The ``--trace-chrome`` CLI path uses this when no JSONL file was
    requested: events accumulate here and are converted to Chrome trace
    format after the run.
    """

    def __init__(self):
        self.records: List[dict] = []

    @property
    def events_written(self) -> int:
        return len(self.records)

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class ProbeBus:
    """Collects counters, histograms, gauges and trace events."""

    enabled = True

    def __init__(self, trace=None):
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.trace = trace
        self.events_emitted = 0
        self._seq = 0
        self._delegate: Optional["ProbeBus"] = None

    # ------------------------------------------------------------------
    @property
    def tracing(self) -> bool:
        """True when events reach a sink — gate costly payload building."""
        if self._delegate is not None:
            return self._delegate.tracing
        return self.trace is not None

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: Union[int, float],
                bounds=None) -> None:
        """Record one observation into the named fixed-bucket histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds or bounds_for(name))
        hist.observe(value)

    def observe_many(self, name: str, values, bounds=None,
                     sums=None) -> None:
        """Vectorised :meth:`observe` for arrays of observations (see
        :meth:`Histogram.observe_many` for ``sums``)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds or bounds_for(name))
        hist.observe_many(values, sums)

    def gauge(self, name: str, value: Union[int, float]) -> None:
        """Set the named gauge (tracks last value and min/max envelope)."""
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        gauge.set(value)

    def event(self, name: str, **fields) -> None:
        if self._delegate is not None:
            if self._delegate.tracing:
                self._delegate.event(name, **fields)
                self.events_emitted += 1
            return
        if self.trace is None:
            return
        record = dict(fields, event=name, seq=self._seq)
        self._seq += 1
        self.trace.emit(record)
        self.events_emitted += 1

    # ------------------------------------------------------------------
    # composition: per-job capture
    # ------------------------------------------------------------------
    def fork(self) -> "ProbeBus":
        """A child bus for scoped capture (one engine job).

        The child accumulates counters, histograms and gauges
        separately — snapshot it for the per-job record — while its
        events still flow to this bus's sink with this bus's sequence
        numbers, so the trace stream stays ordered and whole.  Fold the
        child back with ``merge_snapshot(child.snapshot())``.
        """
        child = ProbeBus()
        child._delegate = self
        return child

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a snapshot dict into the live bus (a finished job, a
        cache-hit replay, a forked child).

        Counters, histograms and gauges merge.  Events are never
        replayed: a forked child already delivered them to this bus's
        sink as they happened.
        """
        for name, value in snap.get("counters", {}).items():
            self.count(name, value)
        for name, hist_snap in snap.get("histograms", {}).items():
            incoming = Histogram.from_snapshot(hist_snap)
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = incoming
            else:
                mine.merge(incoming)
        for name, gauge_snap in snap.get("gauges", {}).items():
            incoming = Gauge.from_snapshot(gauge_snap)
            mine = self.gauges.get(name)
            if mine is None:
                self.gauges[name] = incoming
            else:
                mine.merge(incoming)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able, mergeable state: counters, event volume, histograms
        and gauges (see :func:`repro.obs.metrics.merge_snapshots`)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "events": self.events_emitted,
            "histograms": {name: self.histograms[name].snapshot()
                           for name in sorted(self.histograms)},
            "gauges": {name: self.gauges[name].snapshot()
                       for name in sorted(self.gauges)},
        }

    def close(self) -> None:
        if self.trace is not None:
            self.trace.close()


_EMPTY_MAPPING = MappingProxyType({})


class _NullProbes:
    """No-op bus: the default wired into every component.

    Must stay allocation-free on the hot paths: every method returns
    immediately.  The mapping attributes are read-only views so an
    accidental write through :data:`NULL_PROBES` raises instead of
    leaking global state.
    """

    enabled = False
    tracing = False
    events_emitted = 0

    @property
    def counters(self):
        return _EMPTY_MAPPING

    @property
    def histograms(self):
        return _EMPTY_MAPPING

    @property
    def gauges(self):
        return _EMPTY_MAPPING

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        pass

    def observe(self, name: str, value: Union[int, float],
                bounds=None) -> None:
        pass

    def observe_many(self, name: str, values, bounds=None,
                     sums=None) -> None:
        pass

    def gauge(self, name: str, value: Union[int, float]) -> None:
        pass

    def event(self, name: str, **fields) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": {}, "events": 0, "histograms": {}, "gauges": {}}

    def close(self) -> None:
        pass


NULL_PROBES = _NullProbes()
"""Shared no-op bus; safe to pass anywhere a :class:`ProbeBus` fits."""
