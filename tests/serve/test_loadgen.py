"""Load-generator tests against an in-process server."""

import asyncio
import json

import pytest

from repro.experiments import REGISTRY
from repro.serve import ReproServer, ServeConfig
from repro.serve.loadgen import LoadgenResult, build_request, main, run_loadgen

from tests.serve.test_server import fake_experiment


def run_against_server(mode, endpoint, **kwargs):
    async def scenario():
        server = ReproServer(ServeConfig(port=0, workers=0))
        await server.start()
        try:
            return await run_loadgen(
                server.host, server.port, mode=mode, endpoint=endpoint,
                duration_s=0.4, **kwargs,
            )
        finally:
            await server.drain()

    return asyncio.run(scenario())


class TestLoadgenRuns:
    def test_closed_loop_experiment(self, monkeypatch):
        monkeypatch.setitem(
            REGISTRY, "_svc_load", fake_experiment("_svc_load", []))
        result = run_against_server("closed", "experiment", concurrency=3,
                                    experiment_id="_svc_load")
        assert result.requests > 0
        assert result.ok == result.requests
        assert result.errors == 0
        report = result.report()
        assert report["by_status"] == {"200": result.requests}
        assert report["throughput_rps"] > 0
        assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]
        assert report["latency_ms"]["p99"] <= report["latency_ms"]["max"]
        json.dumps(report)  # report must be JSON-serialisable as-is
        assert "loadgen [closed/experiment]" in result.render()

    def test_open_loop_healthz(self):
        result = run_against_server("open", "healthz", rate=50.0)
        assert result.requests > 0
        assert result.ok == result.requests
        # the schedule should land near rate * duration requests
        assert result.requests >= 10

    def test_unknown_mode_and_endpoint(self):
        with pytest.raises(ValueError, match="unknown endpoint"):
            build_request("nope", "fig19")
        with pytest.raises(ValueError, match="unknown mode"):
            asyncio.run(run_loadgen("127.0.0.1", 1, mode="wat"))


class TestResultMath:
    def test_percentiles_nearest_rank(self):
        result = LoadgenResult(mode="closed", endpoint="experiment",
                               duration_s=1.0)
        for latency in (0.010, 0.020, 0.030, 0.040, 0.100):
            result.record(200, latency)
        result.record(429, 0.001)  # non-200 excluded from latency
        assert result.requests == 6
        assert result.ok == 5
        assert result.percentile(0.0) == 0.010
        assert result.percentile(0.5) == 0.030
        assert result.percentile(1.0) == 0.100
        report = result.report()
        assert report["latency_ms"]["max"] == 100.0
        assert report["by_status"] == {"200": 5, "429": 1}

    def test_empty_result_report(self):
        result = LoadgenResult(mode="open", endpoint="healthz",
                               duration_s=0.0)
        report = result.report()
        assert report["throughput_rps"] == 0.0
        assert report["latency_ms"]["p50"] == 0.0


class TestLoadgenCli:
    def test_main_writes_report_and_requires_success(self, tmp_path,
                                                     capsys):
        """``main()`` runs its own event loop, so push it to a worker
        thread while the target server lives on the test's loop."""
        report_path = tmp_path / "BENCH_serve.json"

        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, main, [
                        "--host", server.host, "--port", str(server.port),
                        "--mode", "closed", "--endpoint", "healthz",
                        "--concurrency", "2", "--duration", "0.3",
                        "--report", str(report_path), "--require-success",
                    ],
                )
            finally:
                await server.drain()

        code = asyncio.run(scenario())
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["ok"] == report["requests"] > 0
        out = capsys.readouterr().out
        assert "loadgen [closed/healthz]" in out
