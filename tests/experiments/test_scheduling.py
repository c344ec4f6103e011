"""The one scheduling loop: its policy, and the transports it drives.

The policy tests drive :func:`repro.experiments.backends.run_pending`
through a scripted transport on fake time, so crashes, timeouts and
stalls are asserted without starting a process.  The transport tests
run the real pool and cluster backends, including the two defects the
per-backend loops had: a pooled job timing out while it waited for a
worker, and a long cluster job on a live worker counted as a stall.
"""

import os
import threading
import time
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cluster.backend import ClusterBackend
from repro.experiments.backends import STALL_S, PoolBackend
from repro.experiments.engine import Runner, SimJob
from repro.experiments.runner import ExperimentSettings

MICRO = ExperimentSettings(memory_bytes=4 << 20, windows=1,
                           benchmarks=("alpha", "beta"), rows_per_ar=32)

TINY_FN = "tests.experiments.test_scheduling:tiny_job"
SLEEP_FN = "tests.experiments.test_scheduling:sleep_job"


def tiny_job(settings, job):
    return {"benchmark": job.benchmark, "value": len(job.benchmark)}


def sleep_job(settings, job):
    time.sleep(job.params["sleep_s"])
    return os.getpid()


def tiny_plan(*names):
    return [SimJob(benchmark=name, fn=TINY_FN) for name in names]


class FakeTime:
    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class ScriptedBackend:
    """A transport whose jobs end on fake time, as scripted.

    ``script`` maps a benchmark to the outcomes of its successive
    submissions, each ``(kind, after_s)`` with kind ``done``, ``lost``
    or ``raise`` (the poll itself raises); unscripted submissions end
    ``done`` after one second.
    Every ``poll`` advances the fake clock by its timeout.  With
    ``recycle`` an eviction stops every held job, as a pool's does.
    """

    name = "scripted"
    in_process = False

    def __init__(self, fake_time, slots=2, script=None, refuse=0,
                 recycle=False):
        self.time = fake_time
        self.slots = slots
        self.script = {name: list(outcomes)
                       for name, outcomes in (script or {}).items()}
        self.refuse = refuse
        self.recycle = recycle
        self.held = {}
        self.submitted = []
        """``(benchmark, attempt, benchmarks already in flight)``."""

    def free_slots(self):
        return self.slots - len(self.held)

    def submit(self, key, args):
        if self.refuse:
            self.refuse -= 1
            return False
        settings, job, _, _, _, attempt = args
        outcomes = self.script.get(job.benchmark) or [("done", 1.0)]
        kind, after_s = outcomes.pop(0)
        running = sorted(held[0].benchmark for held in self.held.values())
        self.submitted.append((job.benchmark, attempt, running))
        self.held[key] = (job, kind, self.time.now + after_s, settings)
        return True

    def poll(self, timeout):
        self.time.now += timeout
        events = []
        for key, (job, kind, ends_at, settings) in list(self.held.items()):
            if self.time.now >= ends_at:
                del self.held[key]
                if kind == "raise":
                    raise RuntimeError(f"{job.benchmark} broke the poll")
                value = ((tiny_job(settings, job), None, 0.0, "scripted", [])
                         if kind == "done" else None)
                events.append((kind, key, value))
        return events

    def evict(self, key):
        self.held.pop(key, None)
        stopped = list(self.held) if self.recycle else []
        for other in stopped:
            del self.held[other]
        return stopped

    def close(self):
        pass


def scripted_runner(backend, fake_time, **kwargs):
    return Runner(jobs=2, cache=None, backend=backend,
                  clock=fake_time.clock, sleep=fake_time.sleep, **kwargs)


class TestLoopPolicy:
    def test_jobs_lost_together_each_take_a_crash_then_run_alone(self):
        fake_time = FakeTime()
        backend = ScriptedBackend(fake_time, script={
            "alpha": [("lost", 1.0)], "beta": [("lost", 1.0)]})
        runner = scripted_runner(backend, fake_time)
        results = runner.run_jobs("_sched", MICRO, tiny_plan("alpha", "beta"))
        assert results == [{"benchmark": "alpha", "value": 5},
                           {"benchmark": "beta", "value": 4}]
        assert runner.stats.worker_crashes == 2
        assert not runner.failures
        assert backend.submitted == [
            ("alpha", 1, []), ("beta", 1, ["alpha"]),
            ("alpha", 2, []), ("beta", 2, []),
        ]

    def test_timeout_requeues_the_jobs_stopped_with_it(self):
        fake_time = FakeTime()
        backend = ScriptedBackend(fake_time, recycle=True, script={
            "alpha": [("done", float("inf"))], "beta": [("done", 10.0)]})
        runner = scripted_runner(backend, fake_time, timeout_s=3.0)
        results = runner.run_jobs("_sched", MICRO, tiny_plan("alpha", "beta"))
        assert results == [{"benchmark": "alpha", "value": 5},
                           {"benchmark": "beta", "value": 4}]
        # the timed-out job comes back as attempt 2 after its backoff;
        # the job stopped with it gets its try back
        assert [(name, attempt) for name, attempt, _ in backend.submitted] \
            == [("alpha", 1), ("beta", 1), ("beta", 1), ("alpha", 2)]
        assert runner.stats.timeouts == 1
        assert runner.stats.retries == 1

    def test_no_free_slot_falls_back_in_process(self):
        fake_time = FakeTime()
        runner = scripted_runner(ScriptedBackend(fake_time, slots=0),
                                 fake_time)
        with pytest.warns(RuntimeWarning, match="no free slot") as caught:
            results = runner.run_jobs("_sched", MICRO, tiny_plan("alpha"))
        assert results == [{"benchmark": "alpha", "value": 5}]
        assert len(caught) == 1
        assert fake_time.now >= STALL_S
        assert [m["worker"] for m in runner.manifest] == [os.getpid()]

    def test_two_refused_submissions_fall_back_in_process(self):
        fake_time = FakeTime()
        runner = scripted_runner(ScriptedBackend(fake_time, refuse=2),
                                 fake_time)
        with pytest.warns(RuntimeWarning, match="2 submissions refused") \
                as caught:
            results = runner.run_jobs("_sched", MICRO, tiny_plan("alpha"))
        assert results == [{"benchmark": "alpha", "value": 5}]
        assert len(caught) == 1
        assert [m["worker"] for m in runner.manifest] == [os.getpid()]

    def test_a_job_in_flight_is_never_a_stall(self):
        fake_time = FakeTime()
        backend = ScriptedBackend(fake_time,
                                  script={"alpha": [("done", 2 * STALL_S)]})
        runner = scripted_runner(backend, fake_time)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = runner.run_jobs("_sched", MICRO, tiny_plan("alpha"))
        assert results == [{"benchmark": "alpha", "value": 5}]
        assert fake_time.now >= 2 * STALL_S
        assert [m["worker"] for m in runner.manifest] == ["scripted"]

    def test_a_loop_left_by_an_exception_evicts_what_it_holds(self):
        """A long-lived backend must not hand a stale job's late result
        to the next batch."""
        fake_time = FakeTime()
        backend = ScriptedBackend(fake_time, script={
            "alpha": [("done", 5.0)], "beta": [("raise", 1.0)]})
        runner = scripted_runner(backend, fake_time)
        with pytest.raises(RuntimeError, match="beta broke the poll"):
            runner.run_jobs("_sched", MICRO, tiny_plan("alpha", "beta"))
        assert backend.held == {}
        results = runner.run_jobs("_sched", MICRO, tiny_plan("alpha", "beta"))
        assert results == [{"benchmark": "alpha", "value": 5},
                           {"benchmark": "beta", "value": 4}]


class BrokenExecutor:
    """A process pool that cannot start a worker."""

    def __init__(self, max_workers):
        pass

    def submit(self, fn, *args):
        raise OSError("cannot fork")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class FlakyExecutor:
    """A process pool whose second submission fails while the first
    job is still held, then works again.

    Jobs run at submission, in this process, and each future resolves
    a moment later.  With ``breaks`` the failure is a broken pool
    (``BrokenProcessPool``, which also fails the held job, as a real
    pool's manager does); otherwise it is a worker that could not
    spawn (``OSError``) and the held job completes.
    """

    def __init__(self, breaks, submissions):
        self.breaks = breaks
        self.submissions = submissions
        """``(benchmark, attempt)`` per submission, across pools."""
        self.held = []

    def submit(self, fn, *args):
        self.submissions.append((args[1].benchmark, args[5]))
        if len(self.submissions) == 2:
            if not self.breaks:
                raise OSError("cannot fork")
            for future, timer in self.held:
                timer.cancel()
                future.set_exception(BrokenProcessPool("a worker died"))
            raise BrokenProcessPool("a worker died")
        future = Future()
        timer = threading.Timer(0.05, future.set_result, [fn(*args)])
        timer.start()
        self.held.append((future, timer))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        for _, timer in self.held:
            timer.cancel()


class TestTransports:
    @pytest.mark.parametrize("breaks", [True, False],
                             ids=["broken-pool", "spawn-failure"])
    def test_pool_refusal_keeps_the_jobs_it_holds(self, monkeypatch,
                                                   breaks):
        """A submission the pool refuses while it holds a job does not
        orphan that job: a broken pool reports it lost, a failed spawn
        lets it finish, and the refused job gets its try back."""
        submissions = []
        monkeypatch.setattr(
            "repro.experiments.backends.ProcessPoolExecutor",
            lambda max_workers: FlakyExecutor(breaks, submissions))
        # the timeout bounds the run should a held job be orphaned
        runner = Runner(jobs=2, cache=None, timeout_s=10.0,
                        backend=PoolBackend())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = runner.run_jobs("_sched", MICRO,
                                      tiny_plan("alpha", "beta"))
        assert results == [{"benchmark": "alpha", "value": 5},
                           {"benchmark": "beta", "value": 4}]
        assert runner.stats.timeouts == 0
        assert runner.stats.retries == 0
        assert not runner.failures
        if breaks:
            # the lost job runs alone before the refused one goes out
            assert runner.stats.worker_crashes == 1
            assert submissions == [("alpha", 1), ("beta", 1),
                                   ("alpha", 2), ("beta", 1)]
        else:
            assert runner.stats.worker_crashes == 0
            assert submissions == [("alpha", 1), ("beta", 1), ("beta", 1)]

    def test_pool_that_cannot_start_falls_back_in_process(
            self, monkeypatch):
        monkeypatch.setattr("repro.experiments.backends.ProcessPoolExecutor",
                            BrokenExecutor)
        runner = Runner(jobs=2, cache=None, backend=PoolBackend())
        with pytest.warns(RuntimeWarning, match="pool backend stalled") \
                as caught:
            results = runner.run_jobs("_sched", MICRO,
                                      tiny_plan("alpha", "beta"))
        assert results == [{"benchmark": "alpha", "value": 5},
                           {"benchmark": "beta", "value": 4}]
        assert len(caught) == 1
        assert {m["worker"] for m in runner.manifest} == {os.getpid()}
        assert runner.stats.retries == 0

    def test_pool_job_waiting_for_a_worker_does_not_time_out(self):
        """Only a job a worker is free for is submitted, so a job does
        not spend its timeout waiting in the pool's call queue."""
        runner = Runner(jobs=2, cache=None, timeout_s=1.0,
                        backend=PoolBackend())
        jobs = [SimJob(benchmark=f"sleep{i}", fn=SLEEP_FN,
                       params={"sleep_s": 0.6}) for i in range(4)]
        results = runner.run_jobs("_sched", MICRO, jobs)
        assert runner.stats.timeouts == 0
        assert runner.stats.retries == 0
        assert os.getpid() not in results

    def test_cluster_long_job_on_a_live_worker_completes(self):
        """A job on a heartbeating worker is progress, however long it
        runs: at 20x clock speed a 4-s job spans 80 runner-seconds.

        At 20x, the loop's ``STALL_S`` wait for a free slot is 3 real
        seconds, so the worker's slot must be free, on the real clock,
        before the fast runner starts; a stall would run the job in
        this process."""
        backend = ClusterBackend(workers=1)
        try:
            # let the fleet join on the real clock first
            Runner(jobs=1, cache=None, backend=backend) \
                .run_jobs("_warm", MICRO, [SimJob(
                    benchmark="warm", fn=SLEEP_FN, params={"sleep_s": 0.0})])
            deadline = time.monotonic() + STALL_S
            while backend.free_slots() < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            runner = Runner(jobs=1, cache=None, backend=backend,
                            clock=lambda: 20 * time.monotonic())
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results = runner.run_jobs("_sched", MICRO, [SimJob(
                    benchmark="long", fn=SLEEP_FN, params={"sleep_s": 4.0})])
        finally:
            backend.close()
        assert not [w for w in caught if "backend stalled" in str(w.message)]
        assert results[0] not in (None, os.getpid())
        assert not runner.failures
