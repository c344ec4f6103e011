"""Two runs sharing one cache dir: disjoint ids, uninterleaved stores."""

import multiprocessing
import time

import pytest

from repro.experiments import REGISTRY
from repro.experiments.engine import Experiment, SimJob, default_run_id
from repro.experiments.lifecycle import RunRequest, execute
from repro.experiments.runner import ExperimentResult, ExperimentSettings
from repro.obs import ProbeBus
from repro.obs.spans import load_run, spans_dir
from repro.store.locks import acquire_run_id

MICRO = ExperimentSettings(
    memory_bytes=4 << 20, windows=1, benchmarks=("alpha", "beta", "gamma"),
    rows_per_ar=32, seed=3,
)

SLOW_FN = "tests.store.test_concurrent_runs:slow_job"
EXPERIMENT_ID = "_store_conc_tiny"


def slow_job(settings, job):
    # long enough that two runs started together are guaranteed to
    # overlap for the whole of either run's lock window
    time.sleep(0.15)
    return {"benchmark": job.benchmark, "value": len(job.benchmark)}


def tiny_plan(settings):
    return [SimJob(benchmark=name, fn=SLOW_FN)
            for name in settings.benchmarks]


def tiny_reduce(settings, results):
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="store concurrency fixture",
        headers=["benchmark", "value"],
        rows=[[r["benchmark"], r["value"]] for r in results],
    )


TINY = Experiment(EXPERIMENT_ID, plan=tiny_plan, reduce=tiny_reduce)


@pytest.fixture(autouse=True)
def register_tiny(monkeypatch):
    monkeypatch.setitem(REGISTRY, EXPERIMENT_ID, TINY)


def _run_in_child(cache_dir: str, barrier, queue) -> None:
    REGISTRY[EXPERIMENT_ID] = TINY
    barrier.wait(timeout=30)
    result = execute(RunRequest(
        EXPERIMENT_ID, settings=MICRO, jobs=1, cache_dir=cache_dir,
    ))
    queue.put(result.rows)


class TestConcurrentProcesses:
    def test_two_processes_get_disjoint_runs(self, tmp_path):
        """The acceptance scenario: same experiment, same cache dir,
        two live processes — each completes under its own run id and
        each run's span store parses cleanly end to end."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        children = [
            ctx.Process(target=_run_in_child,
                        args=(str(tmp_path), barrier, queue))
            for _ in range(2)
        ]
        for child in children:
            child.start()
        rows = [queue.get(timeout=60) for _ in children]
        for child in children:
            child.join(timeout=60)
            assert child.exitcode == 0

        assert rows[0] == rows[1]  # same experiment, same answer

        rid = default_run_id(EXPERIMENT_ID, MICRO)
        stores = sorted(p.stem for p in spans_dir(tmp_path).glob("*.jsonl"))
        assert stores == sorted([rid, f"{rid}.2"])
        for run_id in stores:
            state = load_run(tmp_path, run_id)
            assert state is not None
            assert not state.damaged  # no interleaved/torn lines
            assert len(state.done) == len(MICRO.benchmarks)
            assert not state.failed


class TestInProcessConflict:
    def test_engine_suffixes_past_a_held_lock(self, tmp_path):
        rid = default_run_id(EXPERIMENT_ID, MICRO)
        # simulate a live concurrent run holding the deterministic id
        _, other, _ = acquire_run_id(tmp_path, rid)
        bus = ProbeBus()
        try:
            result = execute(RunRequest(
                EXPERIMENT_ID, settings=MICRO, jobs=1,
                cache_dir=tmp_path, probes=bus,
            ))
        finally:
            other.release()
        assert result.rows  # the run completed despite the conflict
        assert bus.counters["store.run_id_conflicts"] == 1
        state = load_run(tmp_path, f"{rid}.2")
        assert state is not None
        assert len(state.done) == len(MICRO.benchmarks)
        # the original id's store belongs to the other run — ours
        # must not have written it
        assert load_run(tmp_path, rid) is None

    def test_lock_released_after_run(self, tmp_path):
        rid = default_run_id(EXPERIMENT_ID, MICRO)
        execute(RunRequest(
            EXPERIMENT_ID, settings=MICRO, jobs=1, cache_dir=tmp_path,
        ))
        # the finished run's lock is free again: the same id is reusable
        allocated, lock, conflicts = acquire_run_id(tmp_path, rid)
        try:
            assert allocated == rid
            assert conflicts == 0
        finally:
            lock.release()
