"""Tests for histogram/gauge metric types and the snapshot algebra."""

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    HISTOGRAM_BOUNDS,
    Gauge,
    Histogram,
    bounds_for,
    empty_snapshot,
    merge_snapshots,
    register_histogram,
)


class TestHistogram:
    def test_inclusive_upper_bounds_and_overflow(self):
        hist = Histogram((1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 2.0, 3.0):
            hist.observe(value)
        # Prometheus `le` convention: v <= bound lands in the bucket
        assert hist.counts == [2, 2, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(8.0)
        assert hist.mean == pytest.approx(1.6)

    def test_observe_many_matches_scalar_observe(self):
        values = np.linspace(0.0, 3.0, 37)
        scalar = Histogram((0.5, 1.0, 2.0))
        for value in values:
            scalar.observe(value)
        vector = Histogram((0.5, 1.0, 2.0))
        vector.observe_many(values)
        assert vector.counts == scalar.counts
        assert vector.count == scalar.count
        assert vector.sum == pytest.approx(scalar.sum)

    def test_observe_many_empty_is_noop(self):
        hist = Histogram((1.0,))
        hist.observe_many(np.empty(0))
        assert hist.count == 0

    def test_merge_adds_counts(self):
        a, b = Histogram((1.0, 2.0)), Histogram((1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(5.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3

    def test_merge_rejects_mismatched_bounds(self):
        a, b = Histogram((1.0,)), Histogram((2.0,))
        with pytest.raises(ValueError, match="different bounds"):
            a.merge(b)

    def test_snapshot_round_trip(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(1.5)
        clone = Histogram.from_snapshot(hist.snapshot())
        assert clone.counts == hist.counts
        assert clone.bounds == hist.bounds
        assert clone.sum == hist.sum

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(())


class TestGauge:
    def test_envelope(self):
        gauge = Gauge()
        gauge.set(2.0)
        gauge.set(5.0)
        gauge.set(1.0)
        assert (gauge.last, gauge.min, gauge.max, gauge.n) == (1.0, 1.0, 5.0, 3)

    def test_merge_keeps_later_last(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        b.set(9.0)
        b.set(3.0)
        a.merge(b)
        assert (a.last, a.min, a.max, a.n) == (3.0, 1.0, 9.0, 3)

    def test_merge_empty_other_is_noop(self):
        a = Gauge()
        a.set(4.0)
        a.merge(Gauge())
        assert (a.last, a.n) == (4.0, 1)

    def test_snapshot_round_trip(self):
        gauge = Gauge()
        gauge.set(1.5)
        clone = Gauge.from_snapshot(gauge.snapshot())
        assert (clone.last, clone.min, clone.max, clone.n) == (1.5, 1.5, 1.5, 1)


class TestBoundsRegistry:
    def test_registered_metrics_have_fixed_bounds(self):
        assert bounds_for("sim.window_skip_rate") == HISTOGRAM_BOUNDS[
            "sim.window_skip_rate"
        ]
        assert bounds_for("unknown.metric") == DEFAULT_BOUNDS

    def test_register_histogram(self):
        register_histogram("test.only_metric", (1, 10, 100))
        try:
            assert bounds_for("test.only_metric") == (1.0, 10.0, 100.0)
        finally:
            del HISTOGRAM_BOUNDS["test.only_metric"]


class TestMergeSnapshots:
    def _snap(self, counter=0, skip=None):
        snap = empty_snapshot()
        if counter:
            snap["counters"]["c"] = counter
        if skip is not None:
            hist = Histogram((0.5, 1.0))
            hist.observe(skip)
            snap["histograms"]["h"] = hist.snapshot()
        return snap

    def test_merge_is_associative_on_counters_and_histograms(self):
        # binary-exact observations so the histogram sums compare equal
        # regardless of addition order
        a, b, c = self._snap(1, 0.25), self._snap(2, 0.75), self._snap(4, 0.875)
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right
        assert left["counters"]["c"] == 7
        assert left["histograms"]["h"]["count"] == 3

    def test_empty_snapshot_is_identity(self):
        snap = self._snap(3, 0.4)
        assert merge_snapshots(snap, empty_snapshot()) == merge_snapshots(snap)

    def test_inputs_not_mutated(self):
        a, b = self._snap(1, 0.2), self._snap(2, 0.7)
        before = (dict(a["counters"]), a["histograms"]["h"]["counts"][:])
        merge_snapshots(a, b)
        assert (dict(a["counters"]), a["histograms"]["h"]["counts"]) == before

    def test_gauge_merge_keeps_later_last(self):
        a, b = empty_snapshot(), empty_snapshot()
        ga, gb = Gauge(), Gauge()
        ga.set(1.0)
        gb.set(7.0)
        a["gauges"]["g"] = ga.snapshot()
        b["gauges"]["g"] = gb.snapshot()
        merged = merge_snapshots(a, b)
        assert merged["gauges"]["g"]["last"] == 7.0
        assert merged["gauges"]["g"]["min"] == 1.0

    def test_invariants_section_merges(self):
        a, b = empty_snapshot(), empty_snapshot()
        a["invariants"] = {"checks": 10, "violation_count": 1,
                           "violations": [{"check": "x"}]}
        b["invariants"] = {"checks": 5, "violation_count": 0,
                           "violations": []}
        merged = merge_snapshots(a, b)
        assert merged["invariants"]["checks"] == 15
        assert merged["invariants"]["violation_count"] == 1
        assert merged["invariants"]["violations"] == [{"check": "x"}]

    def test_no_invariants_section_when_absent(self):
        assert "invariants" not in merge_snapshots(self._snap(1), self._snap(2))

