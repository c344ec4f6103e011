"""Tests for the parallel experiment engine and its result cache."""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.experiments import REGISTRY, ExperimentSettings
from repro.experiments.cache import ResultCache, canonicalize, stable_digest
from repro.experiments.engine import (
    Experiment,
    Runner,
    SimJob,
    execute_job,
)
from repro.transform.codec import StageSelection

MICRO = ExperimentSettings(
    memory_bytes=4 << 20,
    windows=1,
    benchmarks=("gemsFDTD", "omnetpp"),
    rows_per_ar=32,
    seed=3,
)

JOB = SimJob(benchmark="gemsFDTD", allocated_fraction=0.7,
             config_overrides={"celltype_error_rate": 0.05}, seed_offset=2)


def toy_job(settings, job):
    return job.params["value"]


class TestCacheKeys:
    def test_key_is_deterministic(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.job_key(MICRO, JOB) == cache.job_key(MICRO, JOB)

    def test_key_stable_across_processes(self, tmp_path):
        """The digest must not depend on process state (hash seed etc.)."""
        script = (
            "from repro.experiments.cache import ResultCache\n"
            "from repro.experiments.engine import SimJob\n"
            "from repro.experiments import ExperimentSettings\n"
            "s = ExperimentSettings(memory_bytes=4 << 20, windows=1,\n"
            "                       benchmarks=('gemsFDTD', 'omnetpp'),\n"
            "                       rows_per_ar=32, seed=3)\n"
            "j = SimJob(benchmark='gemsFDTD', allocated_fraction=0.7,\n"
            "           config_overrides={'celltype_error_rate': 0.05},\n"
            "           seed_offset=2)\n"
            "print(ResultCache('unused').job_key(s, j))\n"
        )
        keys = set()
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": "random"},
            )
            assert proc.returncode == 0, proc.stderr
            keys.add(proc.stdout.strip())
        assert keys == {ResultCache(tmp_path).job_key(MICRO, JOB)}

    def test_key_changes_with_settings(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.job_key(MICRO, JOB)
        from dataclasses import replace

        assert cache.job_key(replace(MICRO, windows=2), JOB) != base
        assert cache.job_key(replace(MICRO, seed=4), JOB) != base
        assert cache.job_key(replace(MICRO, memory_bytes=8 << 20), JOB) != base

    def test_key_changes_with_job(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.job_key(MICRO, JOB)
        from dataclasses import replace

        assert cache.job_key(MICRO, replace(JOB, seed_offset=3)) != base
        assert cache.job_key(MICRO, replace(JOB, benchmark="mcf")) != base
        assert cache.job_key(
            MICRO, replace(JOB, config_overrides={"celltype_error_rate": 0.1})
        ) != base

    def test_dataclass_overrides_canonicalize(self):
        a = {"stages": StageSelection.full(), "staggered_counters": True}
        b = {"staggered_counters": True, "stages": StageSelection.full()}
        assert stable_digest(a) == stable_digest(b)
        c = {"stages": StageSelection.none(), "staggered_counters": True}
        assert stable_digest(a) != stable_digest(c)

    def test_canonicalize_rejects_opaque_objects(self):
        with pytest.raises(TypeError, match="stable cache key"):
            canonicalize(object())


class TestResultCacheStore:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert ("ab" * 32) in cache

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("cd" * 32) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()  # removed, not left to fail again

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("01" * 32, 1)
        cache.put("23" * 32, 2)
        assert cache.clear() == 2
        assert cache.get("01" * 32) is None


class TestEngineExecution:
    def test_parallel_equals_serial(self, tmp_path):
        """Same seeds -> identical results regardless of fan-out."""
        serial = Runner(jobs=1, cache=None)
        parallel = Runner(jobs=2, cache=None)
        experiment = REGISTRY["fig17"]
        assert (serial.run_experiment(experiment, MICRO).rows
                == parallel.run_experiment(experiment, MICRO).rows)

    def test_cache_hit_serves_identical_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = Runner(jobs=1, cache=cache)
        warm = Runner(jobs=1, cache=cache)
        experiment = REGISTRY["fig17"]
        first = cold.run_experiment(experiment, MICRO)
        second = warm.run_experiment(experiment, MICRO)
        assert first.rows == second.rows
        assert cold.stats.cache_misses == len(MICRO.benchmarks)
        assert warm.stats.cache_hits == len(MICRO.benchmarks)
        assert warm.stats.cache_misses == 0

    def test_duplicate_jobs_computed_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(jobs=1, cache=cache)
        job = SimJob(benchmark="gemsFDTD")
        results = runner.run_jobs("dup", MICRO, [job, job, job])
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        assert len(list(cache.entries())) == 1

    def test_run_result_pickles(self):
        result = execute_job(MICRO, SimJob(benchmark="gemsFDTD"))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.normalized_refresh == result.normalized_refresh
        assert json.dumps(clone.to_dict())  # JSON-able view


class TestLegacyShim:
    """What outlived the legacy ``run()`` shim: direct calls, and every
    registered module as a plan/reduce experiment."""

    def test_direct_call_still_works(self):
        from repro.experiments.runner import ExperimentResult

        plans = []

        def plan(settings):
            plans.append(settings)
            return [SimJob(fn="tests.experiments.test_engine:toy_job",
                           params={"value": 1})]

        def reduce(settings, results):
            return ExperimentResult("toy", "toy", ["a"], [results])

        result = Experiment("toy", plan=plan, reduce=reduce)(MICRO)
        assert result.rows == [[1]] and plans == [MICRO]

    def test_registry_wraps_every_legacy_module(self):
        for experiment in REGISTRY.values():
            assert isinstance(experiment, Experiment)
            assert callable(experiment.plan) and callable(experiment.reduce)


class TestManifest:
    def test_manifest_entries_and_jsonl(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = Runner(jobs=1, cache=cache)
        runner.run_experiment(REGISTRY["fig17"], MICRO)
        assert len(runner.manifest) == len(MICRO.benchmarks)
        for entry in runner.manifest:
            assert {"experiment_id", "digest", "settings_digest",
                    "cache_hit", "wall_s", "worker"} <= set(entry)
            assert entry["experiment_id"] == "fig17"
            assert not entry["cache_hit"] and entry["wall_s"] > 0

        path = tmp_path / "manifest.jsonl"
        runner.write_manifest(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["digest"] for e in lines] == [
            e["digest"] for e in runner.manifest
        ]
