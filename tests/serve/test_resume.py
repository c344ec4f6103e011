"""Serve-layer run lifecycle: resubmission, drain journaling, pickup.

``POST /v1/experiments/{id}`` reports the run id it records under via
``X-Repro-Run-Id``; a repeat of the request lands in the same run and
appends to its span store; a SIGTERM drain journals requests still
executing to ``serve-inflight.json``; the next ``start()`` resubmits
them as plain requests.
"""

import asyncio
import json
import time

from repro.experiments import REGISTRY
from repro.experiments.engine import (
    ExperimentRequest,
    request_run_id,
)
from repro.obs.spans import dedupe_spans, read_spans, span_path
from repro.serve import ReproServer, ServeConfig
from repro.serve.http import ClientConnection

from tests.serve.test_server import fake_experiment, run_async


class TestResubmission:
    def test_repeated_requests_share_one_run_and_its_store(
        self, monkeypatch, tmp_path
    ):
        """Three identical submissions: one run id, one execution,
        byte-identical bodies, and a store that keeps every
        submission's serve span and the executing run's attempt."""
        calls = []
        monkeypatch.setitem(
            REGISTRY, "_svc_resume", fake_experiment("_svc_resume", calls))
        cache = tmp_path / "cache"

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache),
            ))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    return [await conn.request(
                        "POST", "/v1/experiments/_svc_resume",
                        body=json.dumps({"quick": True}).encode(),
                    ) for _ in range(3)]
            finally:
                await server.drain()

        replies = run_async(scenario())
        assert [status for status, _, _ in replies] == [200, 200, 200]
        run_ids = {headers.get("x-repro-run-id") for _, headers, _ in replies}
        # the run id is the deterministic one for this request
        assert run_ids == {request_run_id(ExperimentRequest(
            experiment_id="_svc_resume", quick=True))}
        assert len({body for _, _, body in replies}) == 1
        assert len(calls) == 1  # the repeats were cache hits
        spans = dedupe_spans(read_spans(span_path(cache, run_ids.pop())))
        names = [s["name"] for s in spans]
        assert names.count("serve.request") == 3
        assert names.count("attempt") == 1

    def test_resume_field_is_unknown(self, monkeypatch):
        calls = []
        monkeypatch.setitem(
            REGISTRY, "_svc_resume", fake_experiment("_svc_resume", calls))

        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    status, _, body = await conn.request(
                        "POST", "/v1/experiments/_svc_resume",
                        body=json.dumps({"resume": "a-run"}).encode(),
                    )
                return status, body
            finally:
                await server.drain()

        status, body = run_async(scenario())
        assert status == 400
        assert b"resume" in body
        assert not calls


class TestDrainJournaling:
    def test_drain_journals_inflight_and_restart_resumes(
        self, monkeypatch, tmp_path
    ):
        """Kill the grace period out from under a slow experiment: the
        drained server journals the request, and a fresh server on the
        same cache picks it up and resubmits it."""
        calls = []
        monkeypatch.setitem(
            REGISTRY, "_svc_slowres",
            fake_experiment("_svc_slowres", calls, 0.5))
        cache_dir = tmp_path / "cache"
        inflight_path = cache_dir / "journal" / "serve-inflight.json"

        async def drain_mid_flight():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache_dir),
                drain_grace_s=0.05,
            ))
            await server.start()

            async def request():
                try:
                    async with ClientConnection(server.host,
                                                server.port) as conn:
                        return await conn.request(
                            "POST", "/v1/experiments/_svc_slowres")
                except (ConnectionError, asyncio.IncompleteReadError,
                        OSError):
                    return None

            pending = asyncio.ensure_future(request())
            for _ in range(200):
                if server._inflight_experiments:
                    break
                await asyncio.sleep(0.01)
            assert server._inflight_experiments
            await server.drain()
            await asyncio.gather(pending, return_exceptions=True)
            return server.metrics_snapshot()

        snap = run_async(drain_mid_flight())
        assert snap["counters"]["serve.journaled_inflight"] == 1
        assert inflight_path.exists()
        doc = json.loads(inflight_path.read_text())
        assert [r["experiment_id"] for r in doc["requests"]] \
            == ["_svc_slowres"]
        # the drained thread executor cannot cancel a running job; let
        # it finish so the restart's resubmission is deterministic
        deadline = time.perf_counter() + 10
        while not calls and time.perf_counter() < deadline:
            time.sleep(0.02)
        assert calls

        async def restart_and_pickup():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache_dir),
            ))
            await server.start()
            try:
                for _ in range(400):
                    snap = server.metrics_snapshot()
                    submitted = snap["counters"].get(
                        "serve.experiments_submitted", 0)
                    if (submitted >= 1 and not server._inflight_experiments
                            and not server._singleflight):
                        break
                    await asyncio.sleep(0.01)
                return server.metrics_snapshot()
            finally:
                await server.drain()

        snap = run_async(restart_and_pickup())
        assert snap["counters"]["serve.resumed_runs"] == 1
        # consumed: a second restart must not resubmit again
        assert not inflight_path.exists()

    def test_clean_drain_journals_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache_dir),
            ))
            await server.start()
            await server.drain()
            return server.metrics_snapshot()

        snap = run_async(scenario())
        assert "serve.journaled_inflight" not in snap["counters"]
        assert not (cache_dir / "journal" / "serve-inflight.json").exists()

    def test_corrupt_inflight_journal_is_counted_and_discarded(
        self, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        path = cache_dir / "journal" / "serve-inflight.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache_dir),
            ))
            await server.start()
            try:
                return server.metrics_snapshot()
            finally:
                await server.drain()

        snap = run_async(scenario())
        assert snap["counters"]["serve.resume_journal_corrupt"] == 1
        assert not path.exists()
