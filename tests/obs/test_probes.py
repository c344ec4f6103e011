"""Tests for the probe bus and its process-wide activation."""

import io
import json

import pytest

from repro.obs import (
    NULL_PROBES,
    JsonlTraceSink,
    ListTraceSink,
    ProbeBus,
    get_probes,
    instrument,
    use_probes,
)


class TestCounters:
    def test_accumulate(self):
        bus = ProbeBus()
        bus.count("refresh.ar_commands")
        bus.count("refresh.ar_commands", 3)
        bus.count("energy.refresh_nj", 2.5)
        assert bus.counters == {"refresh.ar_commands": 4,
                                "energy.refresh_nj": 2.5}

    def test_snapshot_sorted(self):
        bus = ProbeBus()
        bus.count("b.two")
        bus.count("a.one")
        snap = bus.snapshot()
        assert list(snap["counters"]) == ["a.one", "b.two"]
        assert snap["events"] == 0


class TestTrace:
    def test_events_only_reach_an_attached_sink(self):
        bus = ProbeBus()
        assert not bus.tracing
        bus.event("refresh.ar", bank=0)  # silently dropped

        buffer = io.StringIO()
        bus = ProbeBus(trace=JsonlTraceSink(buffer))
        assert bus.tracing
        bus.event("refresh.ar", bank=0, t=0.064)
        bus.event("refresh.ar", bank=1, t=0.064)
        lines = [json.loads(line) for line in
                 buffer.getvalue().strip().splitlines()]
        assert [rec["seq"] for rec in lines] == [0, 1]
        assert lines[0] == {"bank": 0, "event": "refresh.ar",
                            "seq": 0, "t": 0.064}

    def test_sink_writes_file_and_counts(self, tmp_path):
        path = tmp_path / "trace" / "run.jsonl"
        sink = JsonlTraceSink(path)
        bus = ProbeBus(trace=sink)
        bus.event("sim.window", index=0)
        bus.close()
        assert sink.events_written == 1
        assert json.loads(path.read_text())["event"] == "sim.window"


class TestSinks:
    def test_jsonl_sink_close_is_idempotent(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "run.jsonl")
        sink.emit({"event": "x"})
        sink.close()
        sink.close()  # must not raise on an already-closed file
        assert sink.events_written == 1

    def test_jsonl_sink_pins_utf8(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlTraceSink(path)
        assert sink._fh.encoding.lower().replace("-", "") == "utf8"
        sink.emit({"event": "sim.window", "label": "tRETµ"})
        sink.close()
        assert "tRET" in path.read_text(encoding="utf-8")

    def test_list_sink_keeps_records(self):
        sink = ListTraceSink()
        bus = ProbeBus(trace=sink)
        bus.event("refresh.ar", bank=2, t=0.032)
        bus.close()
        assert sink.events_written == 1
        assert sink.records == [{"bank": 2, "event": "refresh.ar",
                                 "seq": 0, "t": 0.032}]


class TestHistogramsAndGauges:
    def test_observe_uses_registered_bounds(self):
        bus = ProbeBus()
        bus.observe("sim.window_skip_rate", 0.45)
        bus.observe("sim.window_skip_rate", 0.05)
        hist = bus.histograms["sim.window_skip_rate"]
        assert hist.count == 2
        assert hist.counts[0] == 1  # <= 0.1
        assert hist.counts[4] == 1  # <= 0.5

    def test_observe_many(self):
        bus = ProbeBus()
        bus.observe_many("x", [0.5, 1.5, 2.0], bounds=(1.0, 2.0))
        hist = bus.histograms["x"]
        assert hist.counts == [1, 2, 0]
        assert hist.sum == pytest.approx(4.0)

    def test_gauge_envelope(self):
        bus = ProbeBus()
        bus.gauge("sys.allocated_fraction", 0.7)
        bus.gauge("sys.allocated_fraction", 0.3)
        gauge = bus.gauges["sys.allocated_fraction"]
        assert (gauge.last, gauge.min, gauge.max, gauge.n) == (0.3, 0.3, 0.7, 2)

    def test_snapshot_includes_both(self):
        bus = ProbeBus()
        bus.observe("h", 1.0, bounds=(2.0,))
        bus.gauge("g", 5)
        snap = bus.snapshot()
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["gauges"]["g"]["last"] == 5.0


class TestForkAbsorb:
    def test_fork_captures_separately_events_flow_to_parent(self):
        sink = ListTraceSink()
        parent = ProbeBus(trace=sink)
        parent.event("a")
        child = parent.fork()
        assert child.tracing
        child.count("sim.windows")
        child.event("b")
        parent.event("c")
        # parent's seq numbering stays monotone across the fork
        assert [rec["seq"] for rec in sink.records] == [0, 1, 2]
        assert "sim.windows" not in parent.counters
        parent.merge_snapshot(child.snapshot())
        assert parent.counters["sim.windows"] == 1

    def test_absorb_merges_all_metric_kinds(self):
        parent = ProbeBus()
        parent.count("c", 1)
        parent.observe("h", 2.0, bounds=(1.0,))
        parent.gauge("g", 1)
        child = parent.fork()
        child.count("c", 2)
        child.observe("h", 0.5, bounds=(1.0,))
        child.gauge("g", 3)
        parent.merge_snapshot(child.snapshot())
        # every metric kind folds into what the parent already held
        assert parent.counters == {"c": 3}
        assert parent.histograms["h"].counts == [1, 1]
        assert parent.gauges["g"].snapshot() == {
            "last": 3.0, "min": 1.0, "max": 3.0, "n": 2}

    def test_merge_snapshot_replays_without_phases_or_events(self):
        source = ProbeBus(trace=ListTraceSink())
        source.count("c", 2)
        source.observe("h", 0.5, bounds=(1.0,))
        source.gauge("g", 4)
        source.event("sim.window")
        target = ProbeBus()
        target.merge_snapshot(source.snapshot())
        assert target.counters == {"c": 2}
        assert target.histograms["h"].count == 1
        assert target.gauges["g"].last == 4.0
        # events are never replayed, and no snapshot holds wall time
        snap = target.snapshot()
        assert snap["events"] == 0
        assert set(snap) == {"counters", "events", "histograms", "gauges"}


class TestNullProbes:
    def test_noop_everything(self):
        NULL_PROBES.count("x", 5)
        NULL_PROBES.event("x", a=1)
        NULL_PROBES.observe("x", 1.0)
        NULL_PROBES.observe_many("x", [1.0, 2.0])
        NULL_PROBES.gauge("x", 1.0)
        assert NULL_PROBES.counters == {}
        assert NULL_PROBES.histograms == {}
        assert NULL_PROBES.gauges == {}
        assert not NULL_PROBES.tracing
        assert NULL_PROBES.snapshot() == ProbeBus().snapshot()

    def test_mappings_are_read_only(self):
        # an accidental write through NULL_PROBES must raise instead of
        # leaking state into every later reader of the shared singleton
        with pytest.raises(TypeError):
            NULL_PROBES.counters["x"] = 1
        with pytest.raises(TypeError):
            NULL_PROBES.histograms["x"] = None
        with pytest.raises(TypeError):
            NULL_PROBES.gauges["x"] = None
        assert NULL_PROBES.counters == {}


class TestAmbientBus:
    def test_default_is_null(self):
        assert get_probes() is NULL_PROBES

    def test_use_probes_installs_and_restores(self):
        outer, inner = ProbeBus(), ProbeBus()
        with use_probes(outer):
            assert get_probes() is outer
            with use_probes(inner):
                assert get_probes() is inner
            assert get_probes() is outer
        assert get_probes() is NULL_PROBES

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_probes(ProbeBus()):
                raise RuntimeError
        assert get_probes() is NULL_PROBES

    def test_instrument_builds_installs_closes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with instrument(trace=path) as bus:
            assert get_probes() is bus
            bus.event("sim.window", index=0)
        assert get_probes() is NULL_PROBES
        assert path.read_text().count("\n") == 1
