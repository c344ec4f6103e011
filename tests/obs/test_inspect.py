"""Tests for :mod:`repro.obs.inspect`: the run-inspector document."""

import json

import pytest

import repro.api as api
from repro.obs.inspect import (
    UnknownRunError,
    inspect_run,
    list_runs,
    main,
    render_report,
)
from repro.obs.spans import append_spans, root_context, trace_id_for_run


def synthetic_store(tmp_path, run_id="synth-run"):
    """A hand-built span store: one run, two jobs, one retried."""
    tid = trace_id_for_run(run_id)
    root = root_context(tid)
    job1, job2 = root.child("job", "d1"), root.child("job", "d2")
    att1a = job1.child("attempt", "1")
    att1b = job1.child("attempt", "2")
    att2 = job2.child("attempt", "1")
    populate = att1b.child("populate", "0")
    measure = att1b.child("measure", "0")

    def rec(ctx, t0, dur_s, **attrs):
        return dict(attrs, trace_id=ctx.trace_id, span_id=ctx.span_id,
                    parent_id=ctx.parent_id, name=ctx.name,
                    q=ctx.qualifier, t0=t0, dur_s=dur_s)

    records = [
        rec(root, 0.0, 10.0, status="ok", experiment_id="figX",
            run_id=run_id, planned=2, cache_hits=1, cache_misses=2),
        rec(job1, 1.0, 8.0, digest="d1", status="done", attempts=2),
        rec(att1a, 1.0, 2.0, error="SimCrash: injected"),
        rec(att1b, 3.5, 5.5),
        rec(populate, 3.5, 0.5),
        rec(measure, 4.0, 3.0, kernel=""),
        rec(job2, 1.0, 3.0, digest="d2", status="done", attempts=1),
        rec(att2, 1.0, 3.0),
    ]
    append_spans(tmp_path, run_id, records)
    return run_id


class TestInspectSynthetic:
    def test_unknown_run_raises(self, tmp_path):
        with pytest.raises(UnknownRunError):
            inspect_run(tmp_path, "never-ran")

    def test_document_joins_spans(self, tmp_path):
        run_id = synthetic_store(tmp_path)
        doc = inspect_run(tmp_path, run_id)
        assert doc["state"] == "finished"
        assert doc["trace_id"] == trace_id_for_run(run_id)
        assert doc["experiment_id"] == "figX"
        assert doc["wall_s"] == 10.0
        assert doc["jobs"]["planned"] == 2
        assert doc["cache"] == {"hits": 1, "misses": 2,
                                "hit_ratio": round(1 / 3, 4)}

    def test_retry_surfaces_in_timeline_and_retries(self, tmp_path):
        doc = inspect_run(tmp_path, synthetic_store(tmp_path))
        (retry,) = doc["retries"]
        assert retry["error"] == "SimCrash: injected"
        assert retry["attempt"] == "1"
        errors = [ev for ev in doc["timeline"] if "error" in ev]
        assert len(errors) == 1 and errors[0]["name"] == "attempt"

    def test_phases_slowest_and_critical_path(self, tmp_path):
        doc = inspect_run(tmp_path, synthetic_store(tmp_path))
        assert doc["phases"] == {
            "measure": {"count": 1, "total_s": 3.0, "mean_s": 3.0},
            "populate": {"count": 1, "total_s": 0.5, "mean_s": 0.5},
        }
        assert doc["slowest_jobs"][0]["digest"] == "d1"
        assert doc["slowest_jobs"][0]["attempts"] == 2
        chain = [n["name"] for n in doc["critical_path"]]
        assert chain == ["run", "job", "attempt", "measure"]

    def test_render_report_mentions_the_essentials(self, tmp_path):
        run_id = synthetic_store(tmp_path)
        text = render_report(inspect_run(tmp_path, run_id))
        assert run_id in text
        assert "state: finished" in text
        assert "SimCrash" in text
        assert "critical path: run > job[d1] > attempt[2] > measure[0]" \
            in text

    def test_interrupted_run_has_no_root_span(self, tmp_path):
        run_id = synthetic_store(tmp_path)
        from repro.obs.spans import read_spans, span_path

        path = span_path(tmp_path, run_id)
        records = [r for r in read_spans(path) if r["name"] != "run"]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        doc = inspect_run(tmp_path, run_id)
        assert doc["state"] == "interrupted"
        assert doc["wall_s"] is None


class TestInspectRealRun:
    def test_engine_run_is_inspectable(self, tmp_path):
        # ext-vrt: cheapest experiment that simulates real windows, so
        # the cached metrics join has sim.* counters to surface
        runner = api.make_runner(cache_dir=tmp_path)
        api.run(api.RunRequest("ext-vrt", settings=api.quick_settings(),
                               cache_dir=tmp_path), runner=runner)
        run_id = runner.last_run_id
        doc = api.inspect_run(run_id, cache_dir=tmp_path)
        assert doc["run_id"] == run_id
        assert doc["state"] == "finished"
        assert doc["jobs"]["done"] >= 1
        assert doc["counters"].get("sim.windows", 0) >= 1

    def test_warm_rerun_keeps_the_cold_runs_phases(self, tmp_path):
        """A warm rerun appends to the cold run's store: the document
        reports the warm run's root and the phases of the cold run,
        which executed every job."""
        for _ in range(2):
            runner = api.make_runner(cache_dir=tmp_path)
            api.run(api.RunRequest("ext-vrt", settings=api.quick_settings(),
                                   cache_dir=tmp_path), runner=runner)
        doc = api.inspect_run(runner.last_run_id, cache_dir=tmp_path)
        done = doc["jobs"]["done"]
        assert done >= 1
        assert (doc["cache"]["hits"], doc["cache"]["misses"]) == (done, 0)
        assert doc["phases"]["measure"]["count"] == done

    def test_unsafe_run_id_lists_as_one_run(self, tmp_path):
        """A run id that is not filename-safe is stored under a hash;
        the listing reports the id recorded on the plan span."""
        api.run(api.RunRequest("sram", settings=api.quick_settings(),
                               cache_dir=tmp_path, run_id="my run"))
        (row,) = list_runs(tmp_path)
        assert row["run_id"] == "my run"
        assert (row["state"], row["done"], row["failed"]) == (
            "finished", 1, 0)
        assert inspect_run(tmp_path, "my run")["jobs"]["done"] == 1

    def test_main_exit_codes(self, tmp_path, capsys):
        run_id = synthetic_store(tmp_path)
        assert main([run_id, "--cache-dir", str(tmp_path)]) == 0
        assert run_id in capsys.readouterr().out
        assert main(["bogus", "--cache-dir", str(tmp_path)]) == 1
        assert "unknown run" in capsys.readouterr().err

    def test_main_json_is_valid(self, tmp_path, capsys):
        run_id = synthetic_store(tmp_path)
        assert main([run_id, "--cache-dir", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run_id"] == run_id
