"""Tests for :mod:`repro.obs.spans`: ids, tracer, store, tree."""

import json

import pytest

from repro.obs.probes import JsonlTraceSink
from repro.obs.spans import (
    ID_WIDTH,
    NULL_TRACER,
    PHASE_NAMES,
    ROOT_PARENT,
    SpanContext,
    SpanTracer,
    append_spans,
    dedupe_spans,
    get_tracer,
    phase_seconds,
    read_spans,
    root_context,
    span_id_for,
    span_path,
    span_tree,
    trace_id_for_run,
    tree_signature,
    use_tracer,
)


class FakeClock:
    """Deterministic wall clock: each call advances one second."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        t = self.now
        self.now += 1.0
        return t


class TestIds:
    def test_trace_id_deterministic_hex(self):
        a = trace_id_for_run("fig17-abc")
        assert a == trace_id_for_run("fig17-abc")
        assert len(a) == ID_WIDTH
        int(a, 16)  # hex
        assert a != trace_id_for_run("fig17-abd")

    def test_span_id_pure_function_of_position(self):
        tid = trace_id_for_run("r")
        a = span_id_for(tid, "p", "job", "digest1")
        assert a == span_id_for(tid, "p", "job", "digest1")
        assert a != span_id_for(tid, "p", "job", "digest2")
        assert a != span_id_for(tid, "q", "job", "digest1")
        assert a != span_id_for(tid, "p", "attempt", "digest1")

    def test_child_and_wire_round_trip(self):
        root = root_context(trace_id_for_run("r"))
        assert root.name == "run" and root.parent_id == ROOT_PARENT
        child = root.child("job", qualifier="d1")
        assert child.parent_id == root.span_id
        assert SpanContext.from_wire(child.to_wire()) == child

    def test_same_position_same_id_across_tracers(self):
        # the property the jobs=1 vs jobs=4 equality rides on
        tid = trace_id_for_run("r")
        a = SpanTracer(tid).context("job", parent=root_context(tid),
                                    qualifier="d1")
        b = SpanTracer(tid).context("job", parent=root_context(tid),
                                    qualifier="d1")
        assert a.span_id == b.span_id


class TestTracer:
    def test_span_records_on_exit_with_duration(self):
        tracer = SpanTracer("t" * 16, clock=FakeClock())
        with tracer.span("run") as ctx:
            pass
        (rec,) = tracer.records
        assert rec["span_id"] == ctx.span_id
        assert rec["name"] == "run"
        assert rec["dur_s"] == 1.0

    def test_nesting_follows_the_ambient_stack(self):
        tracer = SpanTracer("t" * 16, clock=FakeClock())
        with tracer.span("run") as run:
            with tracer.span("job", qualifier="d1") as job:
                assert tracer.current is job
            assert tracer.current is run
        jobs = [r for r in tracer.records if r["name"] == "job"]
        assert jobs[0]["parent_id"] == run.span_id

    def test_occurrence_qualifiers_count_per_parent(self):
        tracer = SpanTracer("t" * 16, clock=FakeClock())
        with tracer.span("attempt", qualifier="1"):
            with tracer.span("warmup"):
                pass
            with tracer.span("measure"):
                pass
            with tracer.span("measure"):
                pass
        qs = [(r["name"], r["q"]) for r in tracer.records]
        assert ("warmup", "0") in qs
        assert ("measure", "0") in qs and ("measure", "1") in qs

    def test_exception_marks_error_and_still_emits(self):
        tracer = SpanTracer("t" * 16, clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("attempt", qualifier="1"):
                raise RuntimeError("boom")
        (rec,) = tracer.records
        assert rec["error"] == "RuntimeError"

    def test_record_span_fabricates_same_id_as_live_span(self):
        clock = FakeClock()
        live = SpanTracer("t" * 16, clock=clock)
        root = root_context("t" * 16)
        with live.span("attempt", parent=root, qualifier="2"):
            pass
        fabricated = SpanTracer("t" * 16).record_span(
            "attempt", parent=root, qualifier="2", t0=0.0, dur_s=0.5,
            error="SimCrash")
        assert fabricated.span_id == live.records[0]["span_id"]

    def test_none_attrs_dropped(self):
        tracer = SpanTracer("t" * 16, clock=FakeClock())
        with tracer.span("run", status="ok", worker=None):
            pass
        (rec,) = tracer.records
        assert rec["status"] == "ok"
        assert "worker" not in rec

    def test_add_records_streams_to_sink(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = JsonlTraceSink(path, flush_every=1)
        tracer = SpanTracer("t" * 16, sink=sink, clock=FakeClock())
        tracer.add_records([{"span_id": "abc", "name": "job"}])
        # flush_every=1: on disk before close
        assert json.loads(path.read_text())["span_id"] == "abc"
        tracer.close()

    def test_ambient_tracer_install_and_default(self):
        assert get_tracer() is NULL_TRACER
        tracer = SpanTracer("t" * 16)
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with get_tracer().span("measure", kernel="k"):
                pass
        assert get_tracer() is NULL_TRACER
        assert tracer.records[0]["kernel"] == "k"

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", deep=1) as ctx:
            assert ctx.span_id == ""
        assert NULL_TRACER.records == []
        assert not NULL_TRACER.enabled


class TestStore:
    def test_append_read_round_trip(self, tmp_path):
        records = [{"span_id": "a", "name": "run", "t0": 1.0},
                   {"span_id": "b", "name": "job", "t0": 2.0}]
        path = append_spans(tmp_path, "run-1", records)
        assert path == span_path(tmp_path, "run-1")
        assert read_spans(path) == records

    def test_read_skips_torn_and_foreign_lines(self, tmp_path):
        path = span_path(tmp_path, "run-1")
        path.parent.mkdir(parents=True)
        path.write_text('{"span_id": "a", "name": "run"}\n'
                        '{"event": "not-a-span"}\n'
                        '{"span_id": "b", "tru')
        assert [r["span_id"] for r in read_spans(path)] == ["a"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_spans(tmp_path / "nope.jsonl") == []

    def test_unsafe_run_id_is_hashed(self, tmp_path):
        path = span_path(tmp_path, "../../etc/passwd")
        assert path.parent == span_path(tmp_path, "ok").parent
        assert path.name.startswith("x")

    def test_dedupe_last_record_wins(self):
        records = [{"span_id": "a", "status": "partial"},
                   {"span_id": "b"},
                   {"span_id": "a", "status": "ok"}]
        deduped = {r["span_id"]: r for r in dedupe_spans(records)}
        assert deduped["a"]["status"] == "ok"
        assert len(deduped) == 2


class TestTree:
    def _records(self):
        tid = trace_id_for_run("r")
        root = root_context(tid)
        job1 = root.child("job", "d1")
        job2 = root.child("job", "d2")
        att = job1.child("attempt", "1")
        mk = (lambda ctx, t0: dict(ctx.to_wire(), q=ctx.qualifier,
                                   t0=t0, dur_s=1.0))
        recs = [mk(root, 0.0), mk(job1, 1.0), mk(job2, 2.0), mk(att, 1.5)]
        for r in recs:
            r.pop("qualifier")
        return recs

    def test_tree_nests_and_sorts_children(self):
        (tree,) = span_tree(self._records())
        assert tree["name"] == "run"
        assert [c["q"] for c in tree["children"]] == ["d1", "d2"]
        assert tree["children"][0]["children"][0]["name"] == "attempt"

    def test_orphans_become_roots(self):
        recs = self._records()
        recs = [r for r in recs if r["name"] != "run"]  # drop the root
        roots = span_tree(recs)
        assert sorted(r["name"] for r in roots) == ["job", "job"]

    def test_signature_ignores_order_and_timings(self):
        recs = self._records()
        shuffled = list(reversed(recs))
        for r in shuffled:
            r["t0"] += 100.0
            r["dur_s"] = 9.9
        assert tree_signature(recs) == tree_signature(shuffled)

    def test_signature_distinguishes_structure(self):
        recs = self._records()
        pruned = [r for r in recs if r["name"] != "attempt"]
        assert tree_signature(recs) != tree_signature(pruned)


class TestPhaseSeconds:
    def _span(self, span_id, name, dur_s):
        return {"span_id": span_id, "name": name, "dur_s": dur_s}

    def test_sums_per_phase_name_sorted(self):
        records = [self._span("a", "measure", 0.25),
                   self._span("b", "populate", 1.5),
                   self._span("c", "measure", 0.5),
                   self._span("d", "warmup", 0.125)]
        totals = phase_seconds(records)
        assert totals == {"measure": 0.75, "populate": 1.5, "warmup": 0.125}
        assert list(totals) == sorted(PHASE_NAMES)

    def test_ignores_spans_that_are_not_phases(self):
        records = [self._span("a", "run", 9.0),
                   self._span("b", "attempt", 4.0),
                   self._span("c", "measure", 0.5)]
        assert phase_seconds(records) == {"measure": 0.5}
        assert phase_seconds([]) == {}

    def test_re_emitted_span_id_counts_once(self):
        # a resumed run appends a second record under the same id
        records = [self._span("a", "populate", 1.0),
                   self._span("a", "populate", 1.0),
                   self._span("b", "populate", 2.0)]
        assert phase_seconds(records) == {"populate": 3.0}


class TestJsonlTraceSinkFlushEvery:
    def test_rejects_non_positive(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JsonlTraceSink(tmp_path / "t.jsonl", flush_every=0)

    def test_flushes_every_n_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path, flush_every=2)
        sink.emit({"seq": 0})
        sink.emit({"seq": 1})  # second record triggers the flush
        assert len(path.read_text().splitlines()) == 2
        sink.close()

    def test_append_mode_preserves_existing_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first = JsonlTraceSink(path, flush_every=1)
        first.emit({"seq": 0})
        first.close()
        second = JsonlTraceSink(path, flush_every=1, append=True)
        second.emit({"seq": 1})
        second.close()
        assert len(path.read_text().splitlines()) == 2
