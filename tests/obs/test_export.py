"""Tests for the Chrome-trace / Perfetto exporter."""

import json

import pytest

from repro.obs.export import (
    COUNTER_FIELDS,
    chrome_trace,
    convert_jsonl,
    main,
    read_jsonl,
    span_chrome_events,
    write_chrome_trace,
)
from repro.obs.spans import root_context, trace_id_for_run


def _instants(doc):
    return [e for e in doc["traceEvents"] if e["ph"] == "i"]


class TestChromeTrace:
    def test_instant_events_on_simulated_clock(self):
        doc = chrome_trace([
            {"event": "refresh.ar", "seq": 0, "t": 0.032, "bank": 3,
             "kernel": "zero-refresh", "ar_set": 7},
        ])
        (event,) = _instants(doc)
        assert event["name"] == "refresh.ar"
        assert event["cat"] == "refresh"
        assert event["s"] == "t"
        # one trace microsecond per simulated microsecond
        assert event["ts"] == pytest.approx(32_000.0)
        assert event["tid"] == 3
        assert event["args"] == {"ar_set": 7}

    def test_process_per_kernel_with_metadata(self):
        doc = chrome_trace([
            {"event": "sim.window", "t": 0.0, "kernel": "zero-refresh"},
            {"event": "sim.window", "t": 0.0, "kernel": "raidr"},
            {"event": "sim.window", "t": 0.064, "kernel": "zero-refresh"},
        ])
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["zero-refresh", "raidr"]
        assert [m["pid"] for m in meta] == [1, 2]
        assert [e["pid"] for e in _instants(doc)] == [1, 2, 1]

    def test_kernel_less_events_land_on_sim_process(self):
        doc = chrome_trace([{"event": "engine.job", "t": 0.5}])
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "sim"
        (event,) = _instants(doc)
        assert event["tid"] == 0  # bank-less -> thread 0
        assert event["ts"] == pytest.approx(500_000.0)

    def test_counter_tracks_from_registered_fields(self):
        assert "sim.window" in COUNTER_FIELDS
        doc = chrome_trace([
            {"event": "sim.window", "t": 0.064, "kernel": "zero-refresh",
             "refreshed": 100, "skipped": 28},
        ])
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert {c["name"]: c["args"] for c in counters} == {
            "sim.window.refreshed": {"refreshed": 100},
            "sim.window.skipped": {"skipped": 28},
        }
        assert all(c["tid"] == 0 for c in counters)

    def test_counter_fields_absent_from_record_are_skipped(self):
        doc = chrome_trace([
            {"event": "refresh.ar", "t": 0.0, "refreshed": 5},
            {"event": "refresh.ar", "t": 0.0},
        ])
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 1

    def test_deterministic_for_identical_input(self):
        records = [
            {"event": "refresh.ar", "seq": i, "t": i * 0.001, "bank": i % 4,
             "kernel": "zero-refresh", "refreshed": i}
            for i in range(16)
        ]
        a = json.dumps(chrome_trace(records), sort_keys=True)
        b = json.dumps(chrome_trace(list(records)), sort_keys=True)
        assert a == b

    def test_document_envelope(self):
        doc = chrome_trace([])
        assert doc["traceEvents"] == []
        assert doc["otherData"]["clock"] == "simulated"


class TestFiles:
    def _write_jsonl(self, path, records):
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        src = tmp_path / "trace.jsonl"
        src.write_text('{"event": "a"}\n\n{"event": "b"}\n')
        assert [r["event"] for r in read_jsonl(src)] == ["a", "b"]

    def test_write_chrome_trace_creates_parents(self, tmp_path):
        out = tmp_path / "deep" / "trace.json"
        n = write_chrome_trace([{"event": "sim.window", "t": 0.0}], out)
        doc = json.loads(out.read_text())
        assert n == len(doc["traceEvents"]) == 2  # metadata + instant

    def test_convert_jsonl_round_trip(self, tmp_path):
        src = tmp_path / "trace.jsonl"
        self._write_jsonl(src, [
            {"event": "refresh.ar", "seq": 0, "t": 0.032, "bank": 1,
             "kernel": "zero-refresh", "refreshed": 3},
        ])
        out = tmp_path / "trace.chrome.json"
        n = convert_jsonl(src, out)
        doc = json.loads(out.read_text())
        # metadata + instant + one counter track
        assert n == 3
        assert [e["ph"] for e in doc["traceEvents"]] == ["M", "i", "C"]


def _span_records():
    tid = trace_id_for_run("r")
    root = root_context(tid)
    job1, job2 = root.child("job", "d1"), root.child("job", "d2")
    att = job1.child("attempt", "1")

    def rec(ctx, t0, dur_s, **attrs):
        return dict(attrs, trace_id=ctx.trace_id, span_id=ctx.span_id,
                    parent_id=ctx.parent_id, name=ctx.name,
                    q=ctx.qualifier, t0=t0, dur_s=dur_s)

    return [rec(root, 100.0, 5.0, status="ok"),
            rec(job1, 101.0, 3.0), rec(att, 101.0, 3.0),
            rec(job2, 101.0, 2.0)]


class TestSpanEvents:
    def test_complete_slices_rebased_to_zero(self):
        events = span_chrome_events(_span_records())
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 4
        run = next(e for e in slices if e["name"] == "run")
        assert run["ts"] == 0.0  # rebased: earliest span is t=0
        assert run["dur"] == 5_000_000.0

    def test_job_subtrees_get_distinct_lanes(self):
        events = span_chrome_events(_span_records())
        lanes = {e["name"]: e["tid"] for e in events if e["ph"] == "X"}
        assert lanes["run"] == 0
        assert lanes["job d1"] != lanes["job d2"]
        # the attempt inherits its job's lane
        assert lanes["attempt 1"] == lanes["job d1"]

    def test_trace_gets_its_own_process_track(self):
        events = span_chrome_events(_span_records())
        (meta,) = [e for e in events if e["ph"] == "M"]
        tid = trace_id_for_run("r")
        assert meta["args"]["name"] == f"spans:{tid}"
        assert all(e["pid"] == meta["pid"]
                   for e in events if e["ph"] == "X")

    def test_merged_into_chrome_trace_without_touching_instants(self):
        probe = [{"event": "sim.window", "t": 0.0, "refreshed": 1}]
        plain = chrome_trace(probe)
        merged = chrome_trace(probe, span_records=_span_records())
        instants = [e for e in merged["traceEvents"] if e["ph"] == "i"]
        assert instants == [e for e in plain["traceEvents"]
                            if e["ph"] == "i"]
        assert any(e["ph"] == "X" for e in merged["traceEvents"])

    def test_convert_jsonl_autodetects_span_store(self, tmp_path):
        src = tmp_path / "spans.jsonl"
        src.write_text("".join(json.dumps(r) + "\n"
                               for r in _span_records()))
        out = tmp_path / "spans.chrome.json"
        n = convert_jsonl(src, out)
        doc = json.loads(out.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 4
        assert n == len(doc["traceEvents"])

    def test_empty_span_records_is_a_noop(self):
        assert span_chrome_events([]) == []
        doc = chrome_trace([], span_records=[])
        assert doc["traceEvents"] == []


class TestMain:
    def test_default_output_path(self, tmp_path, capsys):
        src = tmp_path / "run.jsonl"
        src.write_text('{"event": "sim.window", "t": 0.064}\n')
        assert main([str(src)]) == 0
        out = tmp_path / "run.jsonl.chrome.json"
        assert out.exists()
        assert "2 trace events" in capsys.readouterr().out

    def test_explicit_output_path(self, tmp_path):
        src = tmp_path / "run.jsonl"
        src.write_text('{"event": "sim.window", "t": 0.064}\n')
        out = tmp_path / "custom.json"
        assert main([str(src), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["otherData"]["clock"] == "simulated"


class TestSpanStoreExport:
    def test_torn_span_store_exports_without_seals(self, tmp_path):
        """A killed run leaves a torn last line in its span store: the
        exporter drops it as damage and strips every other line's seal."""
        import repro.api as api
        from repro.obs import ProbeBus, use_probes
        from repro.obs.spans import span_path

        cache = tmp_path / "cache"
        runner = api.make_runner(jobs=1, cache_dir=cache)
        api.run(api.RunRequest("ext-vrt", settings=api.quick_settings(),
                               cache_dir=cache), runner=runner)
        store = span_path(cache, runner.last_run_id)
        lines = store.read_text().splitlines()
        assert all('"_sha"' in line for line in lines)
        store.write_bytes(store.read_bytes()[:-40])

        out = tmp_path / "spans.chrome.json"
        bus = ProbeBus()
        with use_probes(bus):
            assert main([str(store), "-o", str(out)]) == 0
        slices = [e for e in json.loads(out.read_text())["traceEvents"]
                  if e["ph"] == "X"]
        assert len(slices) == len(lines) - 1
        assert not any("_sha" in e["args"] for e in slices)
        assert bus.counters == {"store.corrupt.truncated": 1}
