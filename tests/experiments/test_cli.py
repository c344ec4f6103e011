"""Tests for the python -m repro.experiments command line."""

import re

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_runs_lightweight_experiment(self, capsys):
        assert main(["sram", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[sram]" in out
        assert "337.14" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["nonesuch"])

    def test_scale_flags(self, capsys):
        assert main(["fig04", "--memory-mb", "8", "--windows", "1"]) == 0
        assert "refresh share" in capsys.readouterr().out

    def test_scale_flag_no_run_can_use_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fig14", "--quick", "--windows", "0"])
        assert err.value.code == 2
        assert "windows must be a positive int" in capsys.readouterr().err

    def test_tab01(self, capsys):
        assert main(["tab01", "--quick", "--seed", "3"]) == 0
        assert "bitbrains" in capsys.readouterr().out

    def test_quick_help_matches_quick_settings(self, capsys):
        from repro.experiments import ExperimentSettings

        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        mb = ExperimentSettings.quick().memory_bytes >> 20
        assert f"{mb} MB" in help_text


class TestEngineFlags:
    @pytest.mark.parametrize("flags", [
        ["--retries", "0"], ["--job-timeout", "0"], ["--job-timeout", "-1"],
    ])
    def test_policy_no_run_can_use_is_a_usage_error(self, capsys, flags):
        with pytest.raises(SystemExit) as err:
            main(["sram", "--quick", "--no-cache", "--jobs", "1", *flags])
        assert err.value.code == 2
        assert f"{flags[0]} must be" in capsys.readouterr().err

    def test_json_output(self, capsys):
        import json

        assert main(["sram", "--quick", "--json", "--no-cache"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["experiment_id"] == "sram"
        assert parsed["headers"][0] == "design"

    def test_json_output_carries_run_and_trace_ids(self, tmp_path, capsys):
        import json

        args = ["sram", "--quick", "--json",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["run_id"] and doc["run_id"] in captured.err
        assert len(doc["trace_id"]) == 16
        assert doc["trace_id"] in captured.err
        # deterministic ids: warm rerun prints byte-identical JSON
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out) == doc

    def test_inspect_subcommand(self, tmp_path, capsys):
        import json

        cache = tmp_path / "cache"
        assert main(["sram", "--quick", "--json",
                     "--cache-dir", str(cache)]) == 0
        run_id = json.loads(capsys.readouterr().out)["run_id"]
        assert main(["inspect", run_id, "--cache-dir", str(cache)]) == 0
        report = capsys.readouterr().out
        assert run_id in report
        assert "state: finished" in report
        assert main(["inspect", run_id, "--cache-dir", str(cache),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run_id"] == run_id
        assert doc["state"] == "finished"

    def test_inspect_unknown_run_exits_nonzero(self, tmp_path, capsys):
        assert main(["inspect", "no-such-run",
                     "--cache-dir", str(tmp_path)]) == 1
        assert "unknown run" in capsys.readouterr().err

    def test_csv_out(self, tmp_path, capsys):
        out = tmp_path / "csv"
        assert main(["sram", "--quick", "--no-cache",
                     "--csv-out", str(out)]) == 0
        assert (out / "sram.csv").read_text().startswith("design")

    def test_cache_dir_and_manifest(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["sram", "--quick", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "0 cache hits" in first.err
        assert main(args) == 0
        second = capsys.readouterr()
        assert "1 cache hits" in second.err
        # results byte-identical between cold and warm runs
        assert first.out == second.out
        manifests = list((cache_dir / "manifests").glob("*.jsonl"))
        assert manifests, "manifest JSONL not written"

    def test_no_cache_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # no --cache-dir and no $REPRO_CACHE_DIR: the default cache dir
        # would be .repro-cache under the working directory
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.chdir(tmp_path)
        assert main(["sram", "--quick", "--no-cache"]) == 0
        assert "manifest:" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_jobs_flag_serial_equivalence(self, tmp_path, capsys):
        base = ["fig19", "--memory-mb", "4", "--windows", "1",
                "--no-cache", "--cache-dir", str(tmp_path / "c")]
        assert main(base + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestInstrumentationFlags:
    # ext-vrt is the cheapest experiment that actually simulates
    # retention windows (so phases and sim.* probes are exercised).
    BASE = ["ext-vrt", "--quick", "--no-cache"]

    def test_profile_reports_phases_without_changing_stdout(self, capsys):
        # four jobs: at --jobs 2 they fan out over a pool, whose workers
        # ship their phase spans back
        base = ["fig19", "--memory-mb", "4", "--windows", "1", "--no-cache"]
        assert main(base + ["--jobs", "1"]) == 0
        plain = capsys.readouterr()
        for jobs in ("1", "2"):
            assert main(base + ["--jobs", jobs, "--profile"]) == 0
            profiled = capsys.readouterr()
            assert profiled.out == plain.out
            (line,) = [ln for ln in profiled.err.splitlines()
                       if ln.startswith("profile:")]
            assert re.fullmatch(
                r"profile: measure \d+\.\d{3}s, populate \d+\.\d{3}s, "
                r"warmup \d+\.\d{3}s", line), (jobs, line)

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(self.BASE + ["--trace", str(trace)]) == 0
        err = capsys.readouterr().err
        assert f"trace: {trace}" in err
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        assert events, "no probe events written"
        assert all("event" in rec and "seq" in rec for rec in events)
        assert [rec["seq"] for rec in events] == list(range(len(events)))
        assert any(rec["event"] == "sim.window" for rec in events)

    def test_trace_chrome_without_jsonl(self, tmp_path, capsys):
        import json

        chrome = tmp_path / "trace.chrome.json"
        assert main(self.BASE + ["--trace-chrome", str(chrome)]) == 0
        err = capsys.readouterr().err
        assert "ui.perfetto.dev" in err
        doc = json.loads(chrome.read_text())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants, "no instant events in chrome trace"
        assert any(e["name"] == "sim.window" for e in instants)
        assert doc["otherData"]["clock"] == "simulated"

    def test_trace_chrome_converts_the_jsonl_stream(self, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.chrome.json"
        assert main(self.BASE + ["--trace", str(trace),
                                 "--trace-chrome", str(chrome)]) == 0
        jsonl_events = len(trace.read_text().splitlines())
        doc = json.loads(chrome.read_text())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == jsonl_events

    def test_metrics_json(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        assert main(self.BASE + ["--metrics-json", str(metrics)]) == 0
        assert f"metrics: {metrics}" in capsys.readouterr().err
        doc = json.loads(metrics.read_text())
        assert set(doc) == {"merged", "jobs", "runs"}
        assert doc["merged"]["counters"]["sim.windows"] >= 1
        (run,) = doc["runs"]
        assert run["experiment_id"] == "ext-vrt"
        assert run["run_id"] is None  # BASE runs --no-cache
        assert len(run["trace_id"]) == 16

    def test_metrics_json_identical_across_fan_out(self, tmp_path):
        base = ["fig19", "--memory-mb", "4", "--windows", "1", "--no-cache"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(base + ["--jobs", "1", "--metrics-json", str(a)]) == 0
        assert main(base + ["--jobs", "4", "--metrics-json", str(b)]) == 0
        # snapshots hold only simulated quantities: the files are equal
        assert a.read_bytes() == b.read_bytes()

    def test_watchdog_summary_and_stdout_unchanged(self, capsys):
        assert main(self.BASE) == 0
        plain = capsys.readouterr()
        assert main(self.BASE + ["--watchdog"]) == 0
        watched = capsys.readouterr()
        assert watched.out == plain.out
        assert "invariants:" in watched.err
        assert "0 violations" in watched.err

    def test_watchdog_findings_in_metrics_json(self, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        assert main(self.BASE + ["--watchdog",
                                 "--metrics-json", str(metrics)]) == 0
        invariants = json.loads(metrics.read_text())["merged"]["invariants"]
        assert invariants["checks"] > 0
        assert invariants["violation_count"] == 0


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import api

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith(api.version())
        assert api.version() == "1.0.0"
