"""End-to-end tests of the serving daemon.

These boot a real :class:`ReproServer` on an ephemeral port inside the
test's event loop (``workers=0`` puts experiment jobs on in-process
threads, so test-registered experiments are visible to the executor)
and talk to it over actual sockets.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import REGISTRY
from repro.experiments.engine import Experiment, SimJob
from repro.experiments.runner import ExperimentResult
from repro.serve import ReproServer, ServeConfig
from repro.serve.http import ClientConnection

from tests.obs.test_prometheus import histogram_view, parse_prometheus

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_async(coro, timeout=60.0):
    async def guarded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(guarded())


_FAKE_RUNS = {}
"""Experiment id -> (calls, delay_s) for :func:`fake_job`."""


def fake_job(settings, job):
    """The one job of a fake experiment: record the call, then sleep."""
    calls, delay_s = _FAKE_RUNS[job.params["experiment_id"]]
    calls.append(time.perf_counter())
    if delay_s:
        time.sleep(delay_s)
    return 42


def fake_experiment(experiment_id, calls, delay_s=0.0):
    """A registrable experiment recording executions (thread mode only)."""
    _FAKE_RUNS[experiment_id] = (calls, delay_s)

    def plan(settings):
        return [SimJob(fn="tests.serve.test_server:fake_job",
                       params={"experiment_id": experiment_id})]

    def reduce(settings, results):
        return ExperimentResult(
            experiment_id=experiment_id,
            title="Fake serving-test experiment",
            headers=["metric", "value"],
            rows=[["answer", results[0]]],
        )

    return Experiment(experiment_id, plan=plan, reduce=reduce)


class TestControlPlane:
    def test_healthz_and_metrics(self):
        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    status, _, body = await conn.request("GET", "/healthz")
                    assert status == 200
                    health = json.loads(body)
                    assert health["status"] == "ok"
                    assert health["state"] == "serving"

                    status, headers, body = await conn.request(
                        "GET", "/metrics")
                    assert status == 200
                    assert headers["content-type"].startswith("text/plain")
                    metrics = parse_prometheus(body.decode())
                    assert "repro_serve_requests_total" in metrics
            finally:
                await server.drain()

        run_async(scenario())

    def test_unknown_route_404_and_wrong_method_405(self):
        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    status, _, _ = await conn.request("GET", "/nope")
                    assert status == 404
                    status, _, _ = await conn.request("POST", "/healthz")
                    assert status == 405
                    status, _, _ = await conn.request("GET", "/v1/sweeps")
                    assert status == 405
                    status, _, _ = await conn.request(
                        "POST", "/v1/transform", body=b"{}")
                    assert status == 404
            finally:
                await server.drain()

        run_async(scenario())


class TestExperimentEndpoint:
    def test_concurrent_identical_requests_coalesce_to_one_execution(
        self, monkeypatch, tmp_path
    ):
        """Acceptance: identical concurrent submissions run once and
        return byte-identical JSON; repeats are cache hits."""
        calls = []
        monkeypatch.setitem(
            REGISTRY, "_svc_test", fake_experiment("_svc_test", calls, 0.3))

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(tmp_path / "cache"),
            ))
            await server.start()
            try:
                async def one():
                    async with ClientConnection(server.host,
                                                server.port) as conn:
                        return await conn.request(
                            "POST", "/v1/experiments/_svc_test",
                            body=json.dumps({"quick": True}).encode(),
                        )

                first, second = await asyncio.gather(one(), one())
                third = await one()
                return first, second, third, server.metrics_snapshot()
            finally:
                await server.drain()

        first, second, third, snap = run_async(scenario())
        assert first[0] == second[0] == third[0] == 200
        # one engine execution for the two concurrent submissions
        assert len(calls) == 1
        assert first[2] == second[2] == third[2]
        result = json.loads(first[2])
        assert result["experiment_id"] == "_svc_test"
        assert result["rows"] == [["answer", 42]]
        counters = snap["counters"]
        assert counters["serve.experiments_coalesced"] == 1
        assert counters["serve.experiments_submitted"] == 2
        # the sequential repeat was served by the result cache
        assert counters["serve.experiment_cache_hits"] == 1

    def test_unknown_experiment_404_and_bad_overrides_400(self):
        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    status_unknown, _, _ = await conn.request(
                        "POST", "/v1/experiments/not-a-thing")
                    status_overrides, _, body = await conn.request(
                        "POST", "/v1/experiments/tab01",
                        body=json.dumps(
                            {"overrides": {"bogus_field": 1}}).encode(),
                    )
                    status_field, _, _ = await conn.request(
                        "POST", "/v1/experiments/tab01",
                        body=json.dumps({"surprise": 1}).encode(),
                    )
                    # a falsy non-object is no more "no overrides" than
                    # a truthy one
                    falsy = [await conn.request(
                        "POST", "/v1/experiments/tab01",
                        body=json.dumps({"overrides": value}).encode(),
                    ) for value in ([], False)]
                return (status_unknown, status_overrides, body, status_field,
                        falsy)
            finally:
                await server.drain()

        unknown, overrides, body, field, falsy = run_async(scenario())
        assert unknown == 404
        assert overrides == 400
        assert b"bogus_field" in body
        assert field == 400
        for status, _, falsy_body in falsy:
            assert status == 400
            assert b"overrides must be a JSON object" in falsy_body

    def test_unknown_benchmark_override_is_400(self):
        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    return await conn.request(
                        "POST", "/v1/experiments/fig17",
                        body=json.dumps({"quick": True, "overrides": {
                            "memory_mb": 4, "windows": 1,
                            "benchmarks": ["nope"]}}).encode(),
                    )
            finally:
                await server.drain()

        status, _, body = run_async(scenario())
        assert status == 400
        assert b"unknown benchmark 'nope'" in body


class TestBackpressure:
    def test_saturated_queue_rejects_429_and_server_stays_live(
        self, monkeypatch, tmp_path
    ):
        """Acceptance: with the bound saturated, excess requests get 429
        promptly and the control plane keeps answering."""
        calls = []
        monkeypatch.setitem(
            REGISTRY, "_svc_slow", fake_experiment("_svc_slow", calls, 0.8))

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, max_pending=1,
                cache_dir=str(tmp_path / "cache"),
            ))
            await server.start()
            try:
                async def slow_request():
                    async with ClientConnection(server.host,
                                                server.port) as conn:
                        return await conn.request(
                            "POST", "/v1/experiments/_svc_slow")

                occupant = asyncio.ensure_future(slow_request())
                # wait until the slow request holds the only slot
                for _ in range(100):
                    if server.inflight >= 1:
                        break
                    await asyncio.sleep(0.01)
                assert server.inflight == 1

                async with ClientConnection(server.host, server.port) as conn:
                    start = time.perf_counter()
                    status, headers, body = await conn.request(
                        "POST", "/v1/experiments/_svc_slow")
                    reject_latency = time.perf_counter() - start
                    # every data-plane route passes admission control
                    sweep_status, _, _ = await conn.request(
                        "POST", "/v1/sweeps", body=b"{}")
                    runs_status, _, _ = await conn.request(
                        "GET", "/v1/runs/some-run")
                    health_status, _, health_body = await conn.request(
                        "GET", "/healthz")
                    metrics_status, _, _ = await conn.request(
                        "GET", "/metrics")

                occupant_status, _, _ = await occupant
                # the slot is free again: the same request now succeeds
                async with ClientConnection(server.host, server.port) as conn:
                    retry_status, _, _ = await conn.request(
                        "POST", "/v1/experiments/_svc_slow")
                return {
                    "status": status,
                    "retry_after": headers.get("retry-after"),
                    "body": json.loads(body),
                    "reject_latency": reject_latency,
                    "other_routes": (sweep_status, runs_status),
                    "health": (health_status, json.loads(health_body)),
                    "metrics_status": metrics_status,
                    "occupant": occupant_status,
                    "retry": retry_status,
                    "snapshot": server.metrics_snapshot(),
                }
            finally:
                await server.drain()

        out = run_async(scenario())
        assert out["status"] == 429
        assert out["retry_after"] == "1"
        assert out["body"]["status"] == 429
        # rejection is immediate, far inside any deadline
        assert out["reject_latency"] < 0.5
        assert out["other_routes"] == (429, 429)
        assert out["health"] == (200, {
            "status": "ok", "state": "serving", "inflight": 1,
            "max_pending": 1,
        })
        assert out["metrics_status"] == 200
        assert out["occupant"] == 200
        assert out["retry"] == 200
        counters = out["snapshot"]["counters"]
        assert counters["serve.rejected_429"] == 3
        # the retry was served by the result cache, not a second run
        assert len(calls) == 1
        assert counters["serve.experiment_cache_hits"] == 1

    def test_deadline_expiry_returns_504(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setitem(
            REGISTRY, "_svc_stall", fake_experiment("_svc_stall", calls, 0.5))

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, request_timeout_s=0.1,
                cache_dir=str(tmp_path / "cache"),
            ))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    status, _, _ = await conn.request(
                        "POST", "/v1/experiments/_svc_stall")
                    health_status, _, _ = await conn.request("GET", "/healthz")
                # let the shielded execution finish before tearing down
                await asyncio.sleep(0.6)
                return status, health_status, server.metrics_snapshot()
            finally:
                await server.drain()

        status, health_status, snap = run_async(scenario())
        assert status == 504
        assert health_status == 200
        assert snap["counters"]["serve.timeouts"] == 1


class TestMetricsAgreement:
    def test_exposition_agrees_with_merged_snapshot(self):
        """Acceptance: /metrics histogram counts equal the merged
        repro.obs snapshot for the same run."""
        n_requests = 5

        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    for _ in range(n_requests):
                        status, _, _ = await conn.request("GET", "/healthz")
                        assert status == 200
                    snapshot_before = server.metrics_snapshot()
                    _, _, exposition = await conn.request("GET", "/metrics")
                return snapshot_before, exposition.decode()
            finally:
                await server.drain()

        snapshot, exposition = run_async(scenario())
        metrics = parse_prometheus(exposition)

        latency = snapshot["histograms"]["serve.request_latency_s"]
        buckets, count, total = histogram_view(
            metrics, "repro_serve_request_latency_s")
        assert count == latency["count"] == n_requests
        assert total == pytest.approx(latency["sum"])
        assert buckets["+Inf"] == latency["count"]
        cumulative = 0
        for bound, bucket_count in zip(latency["bounds"], latency["counts"]):
            cumulative += bucket_count
            assert buckets[repr(float(bound))] == cumulative

        for name, value in snapshot["counters"].items():
            prom = "repro_" + name.replace(".", "_").replace("-", "_")
            # the GET /metrics request itself is admitted (and counted)
            # before the exposition renders
            expected = value + 1 if name == "serve.requests" else value
            assert metrics[prom + "_total"]["samples"] == [
                ({}, float(expected))
            ]


class TestDrain:
    def test_drain_finishes_inflight_then_rejects(self, monkeypatch,
                                                  tmp_path):
        calls = []
        monkeypatch.setitem(
            REGISTRY, "_svc_drain", fake_experiment("_svc_drain", calls, 0.3))

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(tmp_path / "cache"),
            ))
            await server.start()

            async def request():
                async with ClientConnection(server.host, server.port) as conn:
                    return await conn.request(
                        "POST", "/v1/experiments/_svc_drain")

            inflight = asyncio.ensure_future(request())
            for _ in range(100):
                if server.inflight >= 1:
                    break
                await asyncio.sleep(0.01)
            await server.drain()
            status, _, _ = await inflight
            return status, server.state

        status, state = run_async(scenario())
        assert status == 200  # in-flight work completed during drain
        assert state == "stopped"
        assert len(calls) == 1


class TestServeMain:
    def test_daemon_boots_serves_and_drains_on_sigterm(self, tmp_path):
        metrics_path = tmp_path / "serve-metrics.json"
        env = dict(
            os.environ,
            PYTHONPATH="src",
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--workers", "0", "--metrics-json", str(metrics_path)],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "repro-serve listening on http://" in line
            port = int(line.split("http://", 1)[1].split()[0]
                       .rsplit(":", 1)[1])

            import urllib.request

            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            ) as response:
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10
            ) as response:
                parse_prometheus(response.read().decode())

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["serve.requests"] == 2

    def test_version_flag(self, capsys):
        from repro import api
        from repro.serve.__main__ import main as serve_main

        with pytest.raises(SystemExit) as exit_info:
            serve_main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out == f"repro-serve {api.version()}"
