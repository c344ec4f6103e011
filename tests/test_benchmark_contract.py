"""The benchmark's exact-output contract, checked in tier-1.

``perfbench`` compares every integer counter of every engine job
exactly against ``perfbench/expected.json``: a counter added to a job's
metrics snapshot, or one that moves, fails every capacity-sweep and
window-traffic operation, and trace-replay compares its whole outputs.
These tests run each workload at seed 0 through the benchmark's own
workload code, unedited, so such a change shows here as a diff that
names the counter: the first capacity-sweep job, every window-traffic
job (in-process, one worker) and the trace replay.

The benchmark's tracer patches ``repro`` methods where they are defined,
so a traced method that ``src`` no longer calls must still exist: the
last test enters and leaves the tracer and requires every original
back.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def expected(workload: str) -> dict:
    return json.loads((PERFBENCH / "expected.json").read_text())[workload]["0"]


def test_capacity_sweep_job_matches_expected(workloads):
    workload = workloads.CapacitySweep(
        0, replace(workloads.SCALES["full"], capacities_mb=(4,)))
    workload.setup()
    outputs = workload.run()

    first_job = expected("capacity-sweep")["jobs"][0]
    assert workloads.canonical(outputs["jobs"][0]) == workloads.canonical(
        first_job)


def test_window_traffic_jobs_match_expected(workloads, tmp_path):
    workload = workloads.WindowTraffic(0, workloads.SCALES["full"],
                                       in_process=True, workdir=tmp_path)
    workload.setup()
    try:
        outputs = workload.run()
    finally:
        workload.cleanup()

    jobs = expected("window-traffic")["jobs"]
    assert [job["key"] for job in outputs["jobs"]] == [job["key"] for job in jobs]
    for got, want in zip(outputs["jobs"], jobs):
        assert workloads.canonical(got) == workloads.canonical(want)


def test_trace_replay_outputs_match_expected(workloads):
    workload = workloads.TraceReplay(0, workloads.SCALES["full"])
    workload.setup()
    workload.make_inputs()
    outputs = workload.run()

    assert workloads.canonical(outputs) == workloads.canonical(
        expected("trace-replay"))


def test_tracer_patches_and_restores_every_traced_name(tracing):
    targets = [(module, path) for module, path, _, _ in tracing.LAYER_SPANS]
    targets += [tracing.REFRESH_TARGET, tracing.PROCESS_AR_TARGET,
                tracing.JOB_TARGET]

    def current():
        """What each traced name is bound to now, looked up as the
        tracer looks it up: a class's own attribute, or a module's.  A
        missing one reads ``None`` here and fails the tracer's entry."""
        bound = []
        for module, path in targets:
            owner, attr = tracing._resolve(module, path)
            bound.append(vars(owner).get(attr))
        return bound

    before = current()
    with tracing.Tracer():
        during = current()
    assert [a is not b for a, b in zip(before, during)] == [True] * len(targets)
    assert [a is b for a, b in zip(before, current())] == [True] * len(targets)
