"""Distribution-grade metrics: histograms, gauges, mergeable snapshots.

Scalar counters (PR 2) answer "how many refreshes were skipped?" but
the paper's headline figures live on *distributions* — per-window skip
rates, row charge lifetimes, codec compression ratios.  This module
adds the two metric types the probe bus was missing:

* :class:`Histogram` — fixed-bucket distribution with inclusive upper
  bounds (Prometheus ``le`` convention) plus an overflow bucket;
* :class:`Gauge` — last-written value with min/max/count envelope.

Both serialise to a plain-dict **snapshot** that is JSON-able and
*mergeable*: :func:`merge_snapshots` folds any number of snapshots into
one, which is how per-worker metrics captured inside a
``ProcessPoolExecutor`` job become a run-level manifest.  Merging is
exact — bucket counts and float sums add in plan order — so a
``jobs=4`` run merges to the same numbers as a ``jobs=1`` run (the
engine tests assert equality).

Bucket bounds are fixed per metric *name* via :data:`HISTOGRAM_BOUNDS`
(register new metrics with :func:`register_histogram`); fixed bounds
are what make cross-process merging well defined.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

RATIO_BOUNDS: Tuple[float, ...] = tuple(round(i / 10, 1) for i in range(1, 11))
"""Ten equal buckets over [0, 1] — skip rates, zero fractions."""

DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0,
)
"""Log-spaced fallback for metrics with no registered bounds."""

HISTOGRAM_BOUNDS: Dict[str, Tuple[float, ...]] = {
    # fraction of an AR window's refresh groups that were skipped
    "sim.window_skip_rate": RATIO_BOUNDS,
    # simulated seconds a refreshed row went without a recharge
    "refresh.row_charge_lifetime_s": (
        0.016, 0.032, 0.064, 0.128, 0.256, 0.512, 1.024, 2.048,
    ),
    # fraction of words driven to zero by the value transformation
    "codec.encoded_zero_fraction": RATIO_BOUNDS,
}
"""Registered fixed bucket bounds, keyed by dotted metric name."""


def register_histogram(name: str, bounds: Sequence[float]) -> None:
    """Fix the bucket bounds used for histogram metric ``name``."""
    HISTOGRAM_BOUNDS[name] = _validated_bounds(bounds)


def bounds_for(name: str) -> Tuple[float, ...]:
    """The registered bounds for ``name`` (default: :data:`DEFAULT_BOUNDS`)."""
    return HISTOGRAM_BOUNDS.get(name, DEFAULT_BOUNDS)


def _validated_bounds(bounds: Sequence[float]) -> Tuple[float, ...]:
    out = tuple(float(b) for b in bounds)
    if not out:
        raise ValueError("histogram needs at least one bucket bound")
    if any(b >= a for b, a in zip(out, out[1:])):
        raise ValueError(f"bucket bounds must be strictly increasing: {out}")
    return out


class Histogram:
    """Fixed-bucket histogram with an overflow bucket.

    Bucket ``i < len(bounds)`` counts observations ``v <= bounds[i]``
    (and ``> bounds[i-1]``); the final bucket counts overflow.  ``sum``
    and ``count`` allow mean recovery; bucket counts give the shape.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Sequence[float]):
        self.bounds = _validated_bounds(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: Number) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += float(value)

    def observe_many(self, values, sums=None) -> None:
        """Vectorised :meth:`observe` for numpy arrays or sequences.

        ``sums``, when given, are added to :attr:`sum` one at a time, in
        order, in place of ``values.sum()``: a call that stands for
        several earlier ``observe_many`` calls passes each call's sum,
        so the float total comes out bit for bit the same.
        """
        import numpy as np

        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        idx = np.searchsorted(self.bounds, values, side="left")
        added = np.bincount(idx, minlength=len(self.counts)).tolist()
        self.counts = [a + b for a, b in zip(self.counts, added)]
        self.count += int(values.size)
        if sums is None:
            self.sum += float(values.sum())
            return
        for part in sums:
            self.sum += part

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (bounds must match)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.sum += other.sum

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Histogram":
        hist = cls(snap["bounds"])
        counts = list(snap["counts"])
        if len(counts) != len(hist.counts):
            raise ValueError("histogram snapshot counts/bounds mismatch")
        hist.counts = [int(c) for c in counts]
        hist.count = int(snap["count"])
        hist.sum = float(snap["sum"])
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(n={self.count}, mean={self.mean:.4g})"


class Gauge:
    """Last-value metric with a min/max/count envelope.

    Merging keeps the *later* operand's last value (merge order is plan
    order in the engine, so merged gauges are deterministic).
    """

    __slots__ = ("last", "min", "max", "n")

    def __init__(self):
        self.last: Optional[float] = None
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.n = 0

    def set(self, value: Number) -> None:
        value = float(value)
        self.last = value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.n += 1

    def merge(self, other: "Gauge") -> None:
        if other.n == 0:
            return
        self.last = other.last
        self.min = other.min if self.min is None else min(self.min, other.min)
        self.max = other.max if self.max is None else max(self.max, other.max)
        self.n += other.n

    def snapshot(self) -> dict:
        return {"last": self.last, "min": self.min, "max": self.max,
                "n": self.n}

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Gauge":
        gauge = cls()
        gauge.last = snap.get("last")
        gauge.min = snap.get("min")
        gauge.max = snap.get("max")
        gauge.n = int(snap.get("n", 0))
        return gauge

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge(last={self.last}, n={self.n})"


# ----------------------------------------------------------------------
# snapshot algebra
# ----------------------------------------------------------------------
def empty_snapshot() -> dict:
    """The identity element of :func:`merge_snapshots`."""
    return {"counters": {}, "events": 0, "histograms": {}, "gauges": {}}


MAX_RECORDED_VIOLATIONS = 100
"""Cap on violation records carried through snapshot merges."""


def merge_snapshots(*snapshots: dict) -> dict:
    """Fold probe-bus snapshots into one (none of the inputs mutated).

    Counters, event counts and histogram buckets add; gauges
    combine their envelopes keeping the later last value; the optional
    ``invariants`` section sums check/violation counts and concatenates
    recorded violations up to :data:`MAX_RECORDED_VIOLATIONS`.
    """
    out = empty_snapshot()
    histograms: Dict[str, Histogram] = {}
    gauges: Dict[str, Gauge] = {}
    invariants: Optional[dict] = None
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        out["events"] += snap.get("events", 0)
        for name, hist_snap in snap.get("histograms", {}).items():
            incoming = Histogram.from_snapshot(hist_snap)
            if name in histograms:
                histograms[name].merge(incoming)
            else:
                histograms[name] = incoming
        for name, gauge_snap in snap.get("gauges", {}).items():
            incoming = Gauge.from_snapshot(gauge_snap)
            if name in gauges:
                gauges[name].merge(incoming)
            else:
                gauges[name] = incoming
        if "invariants" in snap:
            part = snap["invariants"]
            if invariants is None:
                invariants = {"checks": 0, "violation_count": 0,
                              "violations": []}
            invariants["checks"] += part.get("checks", 0)
            invariants["violation_count"] += part.get("violation_count", 0)
            room = MAX_RECORDED_VIOLATIONS - len(invariants["violations"])
            if room > 0:
                invariants["violations"].extend(
                    part.get("violations", [])[:room]
                )
    out["counters"] = dict(sorted(out["counters"].items()))
    out["histograms"] = {name: histograms[name].snapshot()
                         for name in sorted(histograms)}
    out["gauges"] = {name: gauges[name].snapshot()
                     for name in sorted(gauges)}
    if invariants is not None:
        out["invariants"] = invariants
    return out


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str) -> str:
    """Sanitise a dotted metric name into a Prometheus metric name."""
    out = _PROM_NAME_RE.sub("_", f"{prefix}_{name}" if prefix else name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_value(value: Number) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(snapshot: dict, prefix: str = "repro") -> str:
    """Render a probe-bus snapshot in Prometheus text exposition format.

    Counters become ``<prefix>_<name>_total`` counters, gauges expose
    their last value (plus ``_min``/``_max`` companion gauges when an
    envelope exists), histograms follow the cumulative ``le`` bucket
    convention with a ``+Inf`` bucket, ``_sum`` and ``_count`` series,
    and the optional ``invariants`` section exports check/violation
    counters.  Output is deterministic (sorted within each section) so
    identical snapshots render identical text — the ``/metrics``
    endpoint of :mod:`repro.serve` serves exactly this.
    """
    lines: List[str] = []

    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")

    events = snapshot.get("events", 0)
    metric = _prom_name("events", prefix) + "_total"
    lines.append(f"# TYPE {metric} counter")
    lines.append(f"{metric} {_prom_value(events)}")

    for name, gauge in sorted(snapshot.get("gauges", {}).items()):
        if gauge.get("last") is None:
            continue
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(gauge['last'])}")
        for stat in ("min", "max"):
            value = gauge.get(stat)
            if value is not None and value != gauge["last"]:
                lines.append(f"# TYPE {metric}_{stat} gauge")
                lines.append(f"{metric}_{stat} {_prom_value(value)}")

    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["counts"]):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_prom_value(float(bound))}"}} {cumulative}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{metric}_sum {_prom_value(hist['sum'])}")
        lines.append(f"{metric}_count {hist['count']}")

    inv = snapshot.get("invariants")
    if inv is not None:
        for field, value in (("invariant_checks", inv.get("checks", 0)),
                             ("invariant_violations",
                              inv.get("violation_count", 0))):
            metric = _prom_name(field, prefix) + "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prom_value(value)}")

    return "\n".join(lines) + "\n"
