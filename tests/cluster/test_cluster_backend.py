"""End-to-end cluster runs: byte-identical to serial, loss-tolerant.

The acceptance bar from the distributed-execution work: a run scheduled
over a spawned two-worker fleet — including one whose worker is
SIGKILLed mid-job — must reproduce the serial run's result JSON, span
tree signature and whole metrics manifest, as the pool backend must.
"""

import pytest

from repro.experiments.backends import resolve_backend
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.lifecycle import RunRequest, execute, make_runner
from repro.experiments.runner import ExperimentSettings
from repro.obs import ProbeBus
from repro.obs.spans import dedupe_spans, read_spans, span_path, tree_signature

MICRO = ExperimentSettings.quick(
    memory_bytes=8 << 20, windows=1, benchmarks=("mcf", "gcc")
)


def run_fig17(cache_dir, probes=None, **policy):
    """fig17 on a runner built from ``policy`` (``make_runner``
    keywords) into ``cache_dir``; returns ``(result, runner)``."""
    request = RunRequest("fig17", settings=MICRO, probes=probes)
    runner = make_runner(cache_dir=str(cache_dir), **policy)
    try:
        result = execute(request, runner=runner)
    finally:
        runner.close()
    return result, runner


def stored_signature(cache_dir, runner):
    spans = dedupe_spans(read_spans(
        span_path(cache_dir, runner.last_run_id)))
    assert spans, "no span store written"
    return tree_signature(spans)


@pytest.mark.slow
class TestClusterParity:
    def test_two_worker_fleet_matches_serial(self, tmp_path):
        serial_result, serial = run_fig17(tmp_path / "serial", jobs=1)
        cluster_result, cluster = run_fig17(
            tmp_path / "cluster", backend="cluster", workers=2)

        assert cluster_result.to_json() == serial_result.to_json()
        assert cluster.metrics_manifest() == serial.metrics_manifest()
        assert (stored_signature(tmp_path / "cluster", cluster)
                == stored_signature(tmp_path / "serial", serial))
        # the work actually went over the wire: every executed job ran
        # in a process other than this one
        import os

        executed = [m for m in cluster.manifest if not m["cache_hit"]]
        assert executed
        assert all(m["worker"] != os.getpid() for m in executed)

    def test_worker_killed_mid_job_still_lands_identically(self, tmp_path):
        serial_result, _ = run_fig17(tmp_path / "serial", jobs=1)

        bus = ProbeBus()
        faults = FaultPlan((FaultSpec(job_index=1, kind="kill", times=1),))
        cluster_result, cluster = run_fig17(
            tmp_path / "cluster", backend="cluster", workers=2,
            faults=faults, probes=bus)

        assert not cluster.failures
        assert cluster.stats.worker_crashes >= 1
        assert cluster_result.to_json() == serial_result.to_json()
        counters = bus.snapshot()["counters"]
        assert counters["engine.worker_crashes"] >= 1
        assert counters["cluster.requeues"] >= 1
        assert counters["cluster.worker_lost"] >= 1


class TestBackendResolution:
    def test_cluster_name_resolves_lazily(self):
        backend = resolve_backend("cluster", workers=3)
        try:
            assert backend.name == "cluster"
            assert backend.workers == 3
        finally:
            backend.close()

    def test_make_runner_threads_the_backend_name(self, tmp_path):
        runner = make_runner(cache_dir=str(tmp_path), backend="cluster",
                             workers=2)
        try:
            assert runner.backend is not None
            assert runner.backend.name == "cluster"
            assert runner.backend.workers == 2
        finally:
            runner.close()
