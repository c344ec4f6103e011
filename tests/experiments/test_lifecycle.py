"""Tests for the unified run lifecycle: RunRequest, retry, reruns.

These exercise the policy layer with tiny synthetic jobs (no DRAM
simulation) so failures, backoff and rerun behaviour are asserted in
milliseconds; the real-simulation acceptance path lives in
``test_resume_integration.py``.
"""

import errno
import warnings
from dataclasses import replace

import pytest

import repro.api as api
import repro.experiments.engine as engine_mod
from repro.experiments import REGISTRY
from repro.experiments.engine import (
    Experiment,
    RetryPolicy,
    Runner,
    SimJob,
    default_run_id,
)
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.lifecycle import (
    RunRequest,
    execute,
    resolve_jobs,
    runner_for,
)
from repro.experiments.runner import ExperimentResult, ExperimentSettings
from repro.obs import ProbeBus
from repro.obs.probes import JsonlTraceSink
from repro.obs.spans import load_run, read_spans, span_path

MICRO = ExperimentSettings(
    memory_bytes=4 << 20, windows=1, benchmarks=("alpha", "beta", "gamma"),
    rows_per_ar=32, seed=3,
)

TINY_FN = "tests.experiments.test_lifecycle:tiny_job"
FAILING_FN = "tests.experiments.test_lifecycle:failing_job"


def tiny_job(settings, job):
    """Instant deterministic job body (no simulation)."""
    return {"benchmark": job.benchmark, "value": len(job.benchmark)}


def failing_job(settings, job):
    raise RuntimeError("synthetic job failure")


def tiny_plan(settings):
    return [SimJob(benchmark=name, fn=TINY_FN)
            for name in settings.benchmarks]


def tiny_reduce(settings, results):
    return ExperimentResult(
        experiment_id="_lifecycle_tiny",
        title="tiny lifecycle experiment",
        headers=["benchmark", "value"],
        rows=[[r["benchmark"], r["value"]] for r in results],
    )


TINY = Experiment("_lifecycle_tiny", plan=tiny_plan, reduce=tiny_reduce)


@pytest.fixture(autouse=True)
def register_tiny(monkeypatch):
    monkeypatch.setitem(REGISTRY, "_lifecycle_tiny", TINY)


class FakeSleep:
    """An injected sleep that advances its own injected clock."""

    def __init__(self):
        self.calls = []
        self.now = 0.0

    def clock(self):
        return self.now

    def __call__(self, seconds):
        self.calls.append(round(seconds, 6))
        self.now += seconds


class TestRunRequestRouting:
    def test_execute_runs_registered_experiment(self, tmp_path):
        result = execute(RunRequest(
            "_lifecycle_tiny", settings=MICRO, jobs=1,
            cache_dir=tmp_path / "cache",
        ))
        assert result.rows == [["alpha", 5], ["beta", 4], ["gamma", 5]]

    def test_unknown_experiment_names_known_ids(self):
        with pytest.raises(KeyError, match="fig17"):
            execute(RunRequest("not-an-experiment"))

    def test_api_run_is_execute(self, tmp_path):
        result = api.run(api.RunRequest(
            "_lifecycle_tiny", settings=MICRO, jobs=1,
            cache_dir=tmp_path / "cache",
        ))
        assert result.experiment_id == "_lifecycle_tiny"

    def test_execute_shares_one_runner(self, monkeypatch, tmp_path):
        other = Experiment("_lifecycle_other", plan=tiny_plan,
                           reduce=tiny_reduce)
        monkeypatch.setitem(REGISTRY, "_lifecycle_other", other)
        runner = runner_for(RunRequest(
            "_lifecycle_tiny", settings=MICRO, jobs=1,
            cache_dir=tmp_path / "cache",
        ))
        for experiment_id in ("_lifecycle_tiny", "_lifecycle_other"):
            execute(RunRequest(experiment_id, settings=MICRO, jobs=1),
                    runner=runner)
        # one shared runner saw both plans; the second experiment's
        # identical jobs hit the shared cache instead of re-executing
        assert runner.stats.jobs == 6
        assert runner.stats.cache_misses == 3
        assert runner.stats.cache_hits == 3


class TestDeprecatedShims:
    def test_blessed_path_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.run(api.RunRequest(
                "_lifecycle_tiny", settings=MICRO, jobs=1,
                cache_dir=tmp_path / "cache",
            ))


class TestProbesCoercion:
    def test_explicit_jobs_overridden_with_warning(self):
        with pytest.warns(RuntimeWarning, match="jobs=1"):
            assert resolve_jobs(4, ProbeBus()) == 1

    def test_default_jobs_coerced_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs(None, ProbeBus()) == 1
            assert resolve_jobs(1, ProbeBus()) == 1

    def test_no_probes_no_coercion(self):
        assert resolve_jobs(4, None) == 4

    def test_runner_for_applies_coercion(self):
        with pytest.warns(RuntimeWarning):
            runner = runner_for(RunRequest(
                "_lifecycle_tiny", jobs=4, probes=ProbeBus(), cache=False,
            ))
        assert runner.jobs == 1


class TestRetryBackoff:
    def test_backoff_schedule(self):
        policy = RetryPolicy(backoff_base_s=0.05, backoff_factor=2.0,
                             backoff_max_s=0.15)
        assert policy.backoff_s(1) == pytest.approx(0.05)
        assert policy.backoff_s(2) == pytest.approx(0.10)
        assert policy.backoff_s(3) == pytest.approx(0.15)  # capped
        assert policy.backoff_s(9) == pytest.approx(0.15)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_worker_crashes=0)
        with pytest.raises(ValueError, match="timeout_s"):
            Runner(timeout_s=0)

    def test_serial_retries_sleep_the_backoff_sequence(self):
        """Three failing attempts produce exactly the two scheduled
        backoff sleeps, then quarantine (injected clock: no real time)."""
        sleep = FakeSleep()
        runner = Runner(
            jobs=1, cache=None,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.05),
            sleep=sleep, clock=sleep.clock,
        )
        results = runner.run_jobs(
            "_t", MICRO, [SimJob(benchmark="doomed", fn=FAILING_FN)]
        )
        assert results == [None]
        assert sleep.calls == [0.05, 0.1]
        assert len(runner.failures) == 1
        failure = runner.failures[0]
        assert failure.attempts == 3
        assert "synthetic job failure" in failure.error
        assert runner.stats.retries == 2
        assert runner.stats.quarantined == 1

    def test_injected_crash_retries_then_succeeds(self):
        sleep = FakeSleep()
        runner = Runner(
            jobs=1, cache=None,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.02),
            faults=FaultPlan((FaultSpec(job_index=0, kind="crash", times=1),)),
            sleep=sleep, clock=sleep.clock,
        )
        results = runner.run_jobs(
            "_t", MICRO, [SimJob(benchmark="alpha", fn=TINY_FN)]
        )
        assert results == [{"benchmark": "alpha", "value": 5}]
        assert sleep.calls == [0.02]
        assert runner.stats.retries == 1
        assert runner.stats.faults_injected == 1
        assert not runner.failures


class TestQuarantine:
    def test_poisoned_job_yields_partial_failure_report(self, tmp_path):
        """A job that fails every attempt is quarantined; the rest of
        the plan completes and the result is the partial report."""
        bus = ProbeBus()
        request = RunRequest(
            "_lifecycle_tiny", settings=MICRO,
            cache_dir=tmp_path / "cache", probes=bus,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.001),
            faults=FaultPlan((FaultSpec(job_index=1, kind="crash",
                                        times=99),)),
        )
        runner = runner_for(request)
        result = execute(request, runner=runner)

        assert "PARTIAL FAILURE" in result.title
        assert len(runner.failures) == 1
        assert runner.failures[0].benchmark == "beta"
        assert runner.failures[0].attempts == 2
        assert runner.last_run_id in str(result.notes)
        # the two healthy jobs completed and were cached + recorded
        assert runner.stats.quarantined == 1
        assert runner.stats.cache_misses == 3  # all three were attempted
        counters = bus.snapshot()["counters"]
        assert counters["engine.quarantined_jobs"] == 1
        failed_entries = [m for m in runner.manifest if m.get("failed")]
        assert len(failed_entries) == 1

    def test_quarantined_run_resumes_to_completion(self, tmp_path):
        """After the fault is gone, issuing the partial run again serves
        the recorded jobs from the cache and finishes the one that was
        quarantined, in the same run."""
        faulty = RunRequest(
            "_lifecycle_tiny", settings=MICRO,
            cache_dir=tmp_path / "cache",
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.001),
            faults=FaultPlan((FaultSpec(job_index=1, kind="crash",
                                        times=99),)),
        )
        faulty_runner = runner_for(faulty)
        execute(faulty, runner=faulty_runner)

        request = RunRequest(
            "_lifecycle_tiny", settings=MICRO,
            cache_dir=tmp_path / "cache",
        )
        runner = runner_for(request)
        result = execute(request, runner=runner)
        assert result.rows == [["alpha", 5], ["beta", 4], ["gamma", 5]]
        assert runner.last_run_id == faulty_runner.last_run_id
        assert runner.stats.cache_hits == 2
        assert runner.stats.cache_misses == 1


class TestJournal:
    """Reruns into the run's span store (``engine.journal_stale`` keeps
    its name)."""

    def _run(self, tmp_path, *, run_id=None, bus=None, settings=MICRO):
        request = RunRequest(
            "_lifecycle_tiny", settings=settings,
            cache_dir=tmp_path / "cache", run_id=run_id, probes=bus,
        )
        runner = runner_for(request)
        return execute(request, runner=runner), runner

    def test_default_run_id_is_deterministic(self, tmp_path):
        _, first = self._run(tmp_path)
        _, second = self._run(tmp_path)
        assert first.last_run_id == second.last_run_id
        assert first.last_run_id == default_run_id("_lifecycle_tiny", MICRO)

    def test_rerun_appends_to_the_store(self, tmp_path):
        """A plain rerun is all cache hits and appends to the cold run's
        store, which keeps the attempts of the run that did the work."""
        reference, first = self._run(tmp_path)
        result, runner = self._run(tmp_path)
        assert result.to_json() == reference.to_json()
        assert runner.last_run_id == first.last_run_id
        assert runner.stats.cache_hits == 3
        stored = read_spans(span_path(tmp_path / "cache", first.last_run_id))
        assert len([s for s in stored if s["name"] == "attempt"]) == 3
        assert len([s for s in stored if s["name"] == "run"]) == 2

    def test_corrupt_journal_tail_is_tolerated(self, tmp_path):
        reference, first = self._run(tmp_path)
        path = span_path((tmp_path / "cache"), first.last_run_id)
        with path.open("ab") as fh:
            fh.write(b'{"truncated garbage...\x00\xff\n')
        bus = ProbeBus()
        result, runner = self._run(tmp_path, bus=bus)
        assert result.to_json() == reference.to_json()
        counters = bus.snapshot()["counters"]
        assert counters["store.corrupt.truncated"] == 1
        # the intact prefix still names every job done
        assert runner.stats.cache_hits == 3

    def test_truncated_final_line_replays_the_intact_prefix(self, tmp_path):
        """A run killed mid-``write`` leaves a half-written final line;
        the prefix before it must replay as if the tail never happened."""
        reference, first = self._run(tmp_path)
        path = span_path((tmp_path / "cache"), first.last_run_id)
        lines = path.read_bytes().split(b"\n")
        jobs = [i for i, line in enumerate(lines) if b'"name": "job"' in line]
        assert len(jobs) == 3
        # keep everything before the last job line and cut that line
        # off mid-record, as a kill during its write would
        last = jobs[-1]
        half = lines[last][: len(lines[last]) // 2]
        path.write_bytes(b"\n".join(lines[:last] + [half]))
        bus = ProbeBus()
        result, runner = self._run(tmp_path, bus=bus)
        assert result.to_json() == reference.to_json()
        counters = bus.snapshot()["counters"]
        assert counters["store.corrupt.truncated"] == 1
        assert runner.stats.cache_hits == 3
        # only the job whose done span was cut off is recorded again
        cached = [r for r in runner.span_records
                  if r["name"] == "job" and r["status"] == "cached"]
        assert len(cached) == 1

    def test_stale_journal_for_changed_plan_starts_clean(self, tmp_path):
        _, first = self._run(tmp_path)
        changed = replace(MICRO, benchmarks=("alpha", "beta"))
        bus = ProbeBus()
        result, _ = self._run(
            tmp_path, run_id=first.last_run_id, bus=bus, settings=changed
        )
        assert result.rows == [["alpha", 5], ["beta", 4]]
        counters = bus.snapshot()["counters"]
        assert counters["engine.journal_stale"] == 1

    def test_resume_after_torn_tail_loses_no_record(self, tmp_path):
        """A store cut mid-line keeps the fragment as its one damaged
        line: the rerun's first record (its plan span) starts on a
        fresh line instead of being glued onto the fragment."""
        reference, first = self._run(tmp_path)
        path = span_path((tmp_path / "cache"), first.last_run_id)
        path.write_bytes(path.read_bytes()[:-40])
        result, runner = self._run(tmp_path)
        assert result.to_json() == reference.to_json()
        stored = read_spans(path)
        assert all(record in stored for record in runner.span_records)
        assert load_run(tmp_path / "cache", first.last_run_id).damaged == 1


class FullDisk:
    """A file handle whose writes fail as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        self._fh.flush()

    def close(self):
        self._fh.close()


class FullDiskSink(JsonlTraceSink):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._fh = FullDisk(self._fh)


class TestRunStoreWrites:
    def test_full_disk_degrades_the_store_not_the_run(self, monkeypatch,
                                                      tmp_path):
        monkeypatch.setattr(engine_mod, "JsonlTraceSink", FullDiskSink)
        bus = ProbeBus()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = execute(RunRequest(
                "_lifecycle_tiny", settings=MICRO,
                cache_dir=tmp_path / "cache", probes=bus,
            ))
        assert result.rows == [["alpha", 5], ["beta", 4], ["gamma", 5]]
        degraded = [w for w in caught if "degraded" in str(w.message)]
        assert len(degraded) == 1
        assert degraded[0].category is RuntimeWarning
        assert bus.gauges["store.degraded"].last == 1
        assert bus.counters["store.append_errors"] == 1


class TestRunIds:
    @pytest.mark.parametrize("run_id", ["a" * 300, "my run"],
                             ids=["300-chars", "with-space"])
    def test_any_run_id_runs_resumes_and_inspects(self, tmp_path, run_id):
        """Ids that are too long or not filename-safe name their store
        and lock files by a hash; the run itself is unaffected."""
        request = RunRequest("sram", settings=ExperimentSettings.quick(),
                             cache_dir=str(tmp_path), run_id=run_id)
        runners = [runner_for(request), runner_for(request)]
        first, second = (execute(request, runner=r) for r in runners)
        assert [r.last_run_id for r in runners] == [run_id, run_id]
        assert runners[1].stats.cache_hits == 1
        assert second.to_json() == first.to_json()
        doc = api.inspect_run(run_id, cache_dir=tmp_path)
        assert doc["run_id"] == run_id
        assert doc["jobs"]["done"] == 1
