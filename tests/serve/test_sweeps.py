"""End-to-end tests of ``POST /v1/sweeps``: an ad-hoc ScenarioSpec body
runs through the same single-flight + cache machinery as registered
experiments."""

import asyncio
import json
from dataclasses import replace

import pytest

from repro.api import get_scenario
from repro.serve import ReproServer, ServeConfig
from repro.serve.http import ClientConnection


def run_async(coro, timeout=120.0):
    async def guarded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(guarded())


def sweep_body(**extra):
    payload = {
        "spec": {
            "scenario_id": "svc-sweep",
            "description": "serve-test sweep",
            "axes": [
                {"name": "temperature",
                 "values": ["NORMAL", "EXTENDED"]},
                {"name": "benchmark", "values": ["mcf"]},
            ],
            "reduction": "sweep_table",
        },
        "quick": True,
        "overrides": {"memory_mb": 4, "windows": 1},
    }
    payload.update(extra)
    return json.dumps(payload).encode()


class TestSweepEndpoint:
    def test_sweep_runs_and_repeat_is_byte_identical_cache_hit(
        self, tmp_path
    ):
        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(tmp_path / "cache"),
                request_timeout_s=120.0,
            ))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    first = await conn.request(
                        "POST", "/v1/sweeps", body=sweep_body())
                    second = await conn.request(
                        "POST", "/v1/sweeps", body=sweep_body())
                return first, second, server.metrics_snapshot()
            finally:
                await server.drain()

        first, second, snap = run_async(scenario())
        assert first[0] == second[0] == 200
        # fresh vs cached: byte-identical bodies
        assert first[2] == second[2]
        result = json.loads(first[2])
        assert result["experiment_id"] == "svc-sweep"
        assert result["headers"][:2] == ["temperature", "benchmark"]
        assert [row[:2] for row in result["rows"]] == [
            ["NORMAL", "mcf"], ["EXTENDED", "mcf"]]
        counters = snap["counters"]
        assert counters["serve.sweep_requests"] == 2
        assert counters["serve.experiment_cache_hits"] >= 1

    def test_concurrent_identical_sweeps_coalesce(self, tmp_path):
        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(tmp_path / "cache"),
                request_timeout_s=120.0,
            ))
            await server.start()
            try:
                async def one():
                    async with ClientConnection(
                        server.host, server.port
                    ) as conn:
                        return await conn.request(
                            "POST", "/v1/sweeps", body=sweep_body())

                first, second = await asyncio.gather(one(), one())
                return first, second, server.metrics_snapshot()
            finally:
                await server.drain()

        first, second, snap = run_async(scenario())
        assert first[0] == second[0] == 200
        assert first[2] == second[2]
        assert snap["counters"]["serve.experiments_coalesced"] == 1

    def test_invalid_specs_are_400_not_engine_failures(self):
        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    responses = {}
                    responses["bad_axis"] = await conn.request(
                        "POST", "/v1/sweeps",
                        body=sweep_body(spec={
                            "scenario_id": "s",
                            "axes": [{"name": "bogus_key", "values": [1]},
                                     {"name": "benchmark",
                                      "values": ["mcf"]}],
                        }))
                    responses["no_spec"] = await conn.request(
                        "POST", "/v1/sweeps",
                        body=json.dumps({"quick": True}).encode())
                    responses["unknown_field"] = await conn.request(
                        "POST", "/v1/sweeps", body=sweep_body(surprise=1))
                    responses["bad_overrides"] = await conn.request(
                        "POST", "/v1/sweeps",
                        body=sweep_body(overrides={"bogus_field": 1}))
                    responses["wrong_method"] = await conn.request(
                        "GET", "/v1/sweeps")
                return responses
            finally:
                await server.drain()

        responses = run_async(scenario())
        assert responses["bad_axis"][0] == 400
        assert b"bogus_key" in responses["bad_axis"][2]
        assert responses["no_spec"][0] == 400
        assert responses["unknown_field"][0] == 400
        assert b"surprise" in responses["unknown_field"][2]
        assert responses["bad_overrides"][0] == 400
        assert b"bogus_field" in responses["bad_overrides"][2]
        assert responses["wrong_method"][0] == 405

    @pytest.mark.parametrize("spec", [
        {"scenario_id": "s",
         "axes": [{"name": "benchmark", "values": ["nope"]}]},
        # a custom point reads its benchmark from its point parameters
        replace(get_scenario("fig19"),
                point_params={"benchmark": "nope"}).to_dict(),
    ], ids=["benchmark-axis", "custom-point"])
    def test_unknown_benchmark_axis_value_is_400(self, spec):
        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    return await conn.request(
                        "POST", "/v1/sweeps", body=sweep_body(spec=spec))
            finally:
                await server.drain()

        status, _, body = run_async(scenario())
        assert status == 400
        assert b"unknown benchmark 'nope'" in body
