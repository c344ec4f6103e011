"""``GET /v1/runs/{run_id}``: run status from the run's span store.

The serving daemon's read side of span tracing: after an experiment
executes, its run id (the ``X-Repro-Run-Id`` header) resolves to a
status document built by ``repro inspect`` from the span store —
including the ``serve.request`` spans the daemon itself appends.
"""

import asyncio
import json
from types import SimpleNamespace

from repro.experiments import REGISTRY
from repro.experiments.engine import Experiment, RetryPolicy, SimJob
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.lifecycle import RunRequest, execute, runner_for
from repro.experiments.runner import ExperimentResult, ExperimentSettings
from repro.obs.inspect import inspect_run
from repro.obs.spans import dedupe_spans, read_spans, span_path
from repro.serve import ReproServer, ServeConfig
from repro.serve.handlers import handle_run_status
from repro.serve.http import ClientConnection

from tests.serve.test_server import fake_experiment, run_async

MICRO = ExperimentSettings(
    memory_bytes=4 << 20, windows=1, benchmarks=("alpha", "beta", "gamma"),
    rows_per_ar=32, seed=3,
)


def tiny_job(settings, job):
    return len(job.benchmark)


TINY = Experiment(
    "_svc_tiny",
    plan=lambda settings: [
        SimJob(benchmark=name, fn="tests.serve.test_runs_endpoint:tiny_job")
        for name in settings.benchmarks],
    reduce=lambda settings, results: ExperimentResult(
        experiment_id="_svc_tiny", title="tiny", headers=["value"],
        rows=[[r] for r in results]),
)


class TestRunsEndpoint:
    def test_status_after_execution(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setitem(
            REGISTRY, "_svc_runs", fake_experiment("_svc_runs", calls))
        cache = tmp_path / "cache"

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache),
            ))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    _, headers, _ = await conn.request(
                        "POST", "/v1/experiments/_svc_runs",
                        body=json.dumps({"quick": True}).encode(),
                    )
                    run_id = headers.get("x-repro-run-id")
                    status, _, body = await conn.request(
                        "GET", f"/v1/runs/{run_id}")
                return run_id, status, json.loads(body)
            finally:
                await server.drain()

        run_id, status, doc = run_async(scenario())
        assert status == 200
        assert doc["run_id"] == run_id
        assert doc["state"] == "finished"
        assert doc["jobs"]["done"] == 1
        assert doc["retries"] == 0
        assert len(doc["trace_id"]) == 16
        assert doc["spans"] >= 1

        # the daemon appended its own serve.request span to the store
        spans = dedupe_spans(read_spans(span_path(cache, run_id)))
        names = {s["name"] for s in spans}
        assert "serve.request" in names
        assert "serve.offload" in names

    def test_unknown_run_is_404(self):
        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    status, _, body = await conn.request(
                        "GET", "/v1/runs/never-happened")
                return status, body
            finally:
                await server.drain()

        status, body = run_async(scenario())
        assert status == 404
        assert b"unknown run" in body

    def test_post_is_method_not_allowed(self):
        async def scenario():
            server = ReproServer(ServeConfig(port=0, workers=0))
            await server.start()
            try:
                async with ClientConnection(server.host, server.port) as conn:
                    status, _, _ = await conn.request(
                        "POST", "/v1/runs/whatever", body=b"{}")
                return status
            finally:
                await server.drain()

        assert run_async(scenario()) == 405

    def test_coalesced_requests_each_leave_a_span(
        self, monkeypatch, tmp_path
    ):
        """Two concurrent identical submissions single-flight into one
        execution, but both leave serve.request spans (the follower's
        marked coalesced) — span qualifiers are submission-unique."""
        calls = []
        monkeypatch.setitem(
            REGISTRY, "_svc_coal",
            fake_experiment("_svc_coal", calls, delay_s=0.3))
        cache = tmp_path / "cache"

        async def scenario():
            server = ReproServer(ServeConfig(
                port=0, workers=0, cache_dir=str(cache),
            ))
            await server.start()
            try:
                async def post():
                    async with ClientConnection(
                        server.host, server.port
                    ) as conn:
                        _, headers, _ = await conn.request(
                            "POST", "/v1/experiments/_svc_coal",
                            body=json.dumps({"quick": True}).encode(),
                        )
                        return headers.get("x-repro-run-id")
                run_ids = await asyncio.gather(post(), post())
                return run_ids
            finally:
                await server.drain()

        run_ids = run_async(scenario())
        assert len(set(run_ids)) == 1
        assert len(calls) == 1  # single-flight executed once
        spans = dedupe_spans(read_spans(span_path(cache, run_ids[0])))
        requests = [s for s in spans if s["name"] == "serve.request"]
        assert len(requests) == 2
        assert sum(1 for s in requests if s.get("coalesced")) == 1


class TestAgreesWithInspect:
    """The endpoint adds only the ``running`` state to ``repro inspect``:
    state and job counts agree for finished, partial and interrupted
    runs."""

    def run(self, cache, run_id, **overrides):
        request = RunRequest("_svc_tiny", settings=MICRO, cache_dir=cache,
                             run_id=run_id, **overrides)
        runner = runner_for(request)
        execute(request, runner=runner)
        return runner

    def status(self, cache, run_id):
        server = SimpleNamespace(cache_root=cache, _inflight_experiments={})
        return json.loads(handle_run_status(server, run_id, None).body)

    def test_finished_partial_and_interrupted(self, monkeypatch, tmp_path):
        monkeypatch.setitem(REGISTRY, "_svc_tiny", TINY)
        cache = tmp_path / "cache"
        partial = self.run(
            cache, "partial",
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.001),
            faults=FaultPlan((FaultSpec(job_index=1, kind="crash",
                                        times=99),)))
        self.run(cache, "finished")
        self.run(cache, "interrupted")
        path = span_path(cache, "interrupted")
        kept = [line for line in path.read_text().splitlines()
                if '"name": "run"' not in line]
        path.write_text("\n".join(kept) + "\n")

        expected = {"finished": ("finished", 3, 0),
                    "partial": ("partial", 2, 1),
                    "interrupted": ("interrupted", 3, 0)}
        for run_id, (state, done, failed) in expected.items():
            doc = inspect_run(cache, run_id)
            status = self.status(cache, run_id)
            assert status["state"] == doc["state"] == state
            assert status["jobs"] == doc["jobs"]
            assert doc["jobs"] == {"planned": 3, "done": done,
                                   "failed": failed}

        (failure,) = partial.failures
        (entry,) = inspect_run(cache, "partial")["quarantined"]
        assert entry == {"digest": failure.digest, "error": failure.error,
                         "attempts": failure.attempts,
                         "worker_crashes": failure.worker_crashes}
