"""Tests for the Prometheus text exposition of probe-bus snapshots.

Also home of :func:`parse_prometheus` / :func:`histogram_view`, the
strict exposition-format parser these tests (and the serve tests)
assert through — it lives here, in a collected test module, so its own
format checks run with the suite instead of sitting in a stray helper.
"""

import re

import pytest

from repro.obs import ProbeBus, merge_snapshots
from repro.obs.metrics import prometheus_text, register_histogram

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"$')


def parse_prometheus(text):
    """Parse exposition text into ``{name: {"type": t, "samples": [...]}}``.

    Strict enough to catch real formatting mistakes: every non-comment
    line must be ``name[{labels}] value``, names must match the metric
    name grammar, and label values must be quoted.  Samples are
    ``(labels_dict, float_value)`` tuples.  Raises ``ValueError`` on
    any line that is not valid exposition format, so using this parser
    *is* the format assertion.
    """
    metrics = {}
    types = {}
    if not text.endswith("\n"):
        raise ValueError("exposition text must end with a newline")
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"invalid exposition line: {line!r}")
        labels = {}
        if match.group("labels"):
            for part in match.group("labels").split(","):
                label_match = _LABEL_RE.match(part.strip())
                if label_match is None:
                    raise ValueError(f"invalid label in line: {line!r}")
                labels[label_match.group("key")] = label_match.group("value")
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        entry = metrics.setdefault(
            name, {"type": types.get(name) or types.get(base), "samples": []}
        )
        entry["samples"].append((labels, value))
    return metrics


def histogram_view(metrics, name):
    """Return ``(bucket_counts_by_le, total_count, total_sum)`` for a
    histogram metric ``name`` parsed by :func:`parse_prometheus`."""
    buckets = {}
    for labels, value in metrics[f"{name}_bucket"]["samples"]:
        buckets[labels["le"]] = value
    count = metrics[f"{name}_count"]["samples"][0][1]
    total = metrics[f"{name}_sum"]["samples"][0][1]
    return buckets, count, total


class TestParserStrictness:
    """The parser must reject malformed exposition text, or every
    test that asserts through it is vacuous."""

    def test_rejects_missing_trailing_newline(self):
        with pytest.raises(ValueError, match="newline"):
            parse_prometheus("repro_x_total 1")

    def test_rejects_invalid_sample_line(self):
        with pytest.raises(ValueError, match="invalid exposition line"):
            parse_prometheus("not a metric line!\n")

    def test_rejects_unquoted_label_value(self):
        with pytest.raises(ValueError, match="invalid label"):
            parse_prometheus('repro_x_total{phase=measure} 1\n')

    def test_parses_inf_and_types(self):
        text = ("# TYPE repro_lat_s histogram\n"
                'repro_lat_s_bucket{le="+Inf"} 5\n')
        metrics = parse_prometheus(text)
        assert metrics["repro_lat_s_bucket"]["type"] == "histogram"
        (labels, value), = metrics["repro_lat_s_bucket"]["samples"]
        assert labels == {"le": "+Inf"} and value == 5.0
        assert parse_prometheus("repro_x +Inf\n")["repro_x"]["samples"] == [
            ({}, float("inf"))
        ]


@pytest.fixture
def sample_bus():
    register_histogram("promtest.latency_s", (0.1, 0.5, 1.0))
    bus = ProbeBus()
    bus.count("refresh.groups_skipped", 42)
    bus.count("cache.hits", 7)
    bus.gauge("sys.depth", 3)
    bus.gauge("sys.depth", 5)
    bus.gauge("sys.depth", 4)
    for value in (0.05, 0.2, 0.3, 0.7, 2.0):
        bus.observe("promtest.latency_s", value)
    return bus


class TestPrometheusText:
    def test_parses_and_counters_match(self, sample_bus):
        snapshot = sample_bus.snapshot()
        metrics = parse_prometheus(prometheus_text(snapshot))
        assert metrics["repro_refresh_groups_skipped_total"]["samples"] == [
            ({}, 42.0)
        ]
        assert metrics["repro_refresh_groups_skipped_total"]["type"] == "counter"
        assert metrics["repro_cache_hits_total"]["samples"] == [({}, 7.0)]

    def test_gauge_last_min_max(self, sample_bus):
        metrics = parse_prometheus(prometheus_text(sample_bus.snapshot()))
        assert metrics["repro_sys_depth"]["samples"] == [({}, 4.0)]
        assert metrics["repro_sys_depth"]["type"] == "gauge"
        assert metrics["repro_sys_depth_min"]["samples"] == [({}, 3.0)]
        assert metrics["repro_sys_depth_max"]["samples"] == [({}, 5.0)]

    def test_histogram_buckets_are_cumulative_and_agree_with_snapshot(
        self, sample_bus
    ):
        snapshot = sample_bus.snapshot()
        metrics = parse_prometheus(prometheus_text(snapshot))
        buckets, count, total = histogram_view(
            metrics, "repro_promtest_latency_s"
        )
        hist = snapshot["histograms"]["promtest.latency_s"]
        # cumulative reconstruction of the snapshot's per-bucket counts
        assert buckets["0.1"] == 1
        assert buckets["0.5"] == 3
        assert buckets["1.0"] == 4
        assert buckets["+Inf"] == hist["count"] == count == 5
        assert total == pytest.approx(hist["sum"])
        # monotone cumulative counts
        ordered = [buckets["0.1"], buckets["0.5"], buckets["1.0"],
                   buckets["+Inf"]]
        assert ordered == sorted(ordered)

    def test_phases_and_events(self, sample_bus):
        metrics = parse_prometheus(prometheus_text(sample_bus.snapshot()))
        # snapshots hold no wall time, so no phase family is exported
        assert not any("phase" in name for name in metrics)
        assert metrics["repro_events_total"]["samples"] == [({}, 0.0)]

    def test_invariants_section(self):
        snapshot = merge_snapshots({
            "counters": {}, "events": 0, "histograms": {}, "gauges": {},
            "invariants": {"checks": 9, "violation_count": 2,
                           "violations": []},
        })
        metrics = parse_prometheus(prometheus_text(snapshot))
        assert metrics["repro_invariant_checks_total"]["samples"] == [({}, 9.0)]
        assert metrics["repro_invariant_violations_total"]["samples"] == [
            ({}, 2.0)
        ]

    def test_empty_snapshot_renders(self):
        metrics = parse_prometheus(prometheus_text(ProbeBus().snapshot()))
        assert metrics["repro_events_total"]["samples"] == [({}, 0.0)]

    def test_deterministic_output(self, sample_bus):
        snapshot = sample_bus.snapshot()
        assert prometheus_text(snapshot) == prometheus_text(snapshot)

    def test_name_sanitisation(self):
        bus = ProbeBus()
        bus.count("weird-metric.name/with:stuff")
        text = prometheus_text(bus.snapshot())
        assert "repro_weird_metric_name_with_stuff_total 1" in text
        parse_prometheus(text)

    def test_custom_prefix(self, sample_bus):
        text = prometheus_text(sample_bus.snapshot(), prefix="zr")
        metrics = parse_prometheus(text)
        assert "zr_cache_hits_total" in metrics

    def test_unset_gauges_skipped(self):
        bus = ProbeBus()
        snapshot = bus.snapshot()
        snapshot["gauges"]["never.set"] = {"last": None, "min": None,
                                           "max": None, "n": 0}
        metrics = parse_prometheus(prometheus_text(snapshot))
        assert "repro_never_set" not in metrics
