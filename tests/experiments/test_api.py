"""Tests for the ``repro.api`` facade."""

import json

import pytest

import repro.api as api
from repro.experiments import REGISTRY
from repro.experiments.cache import ResultCache

MICRO = api.default_settings(
    memory_bytes=4 << 20,
    windows=1,
    benchmarks=("gemsFDTD", "omnetpp"),
    rows_per_ar=32,
    seed=3,
)


class TestFacade:
    def test_list_experiments_matches_registry(self):
        assert api.list_experiments() == list(REGISTRY)

    def test_get_experiment_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment 'nope'"):
            api.get_experiment("nope")

    def test_settings_helpers(self):
        assert api.quick_settings().memory_bytes == 16 << 20
        assert api.default_settings().memory_bytes == 32 << 20
        assert api.quick_settings(seed=9).seed == 9

    def test_run_experiment(self, tmp_path):
        result = api.run(api.RunRequest("sram", settings=MICRO, cache=True,
                                        cache_dir=tmp_path, jobs=1))
        assert result.experiment_id == "sram"
        parsed = json.loads(result.to_json())
        assert parsed["headers"] == result.headers
        assert result.to_csv().splitlines()[0].startswith("design")

    def test_shared_runner_accumulates_manifest(self, tmp_path):
        runner = api.make_runner(jobs=1, cache=True, cache_dir=tmp_path)
        api.run(api.RunRequest("sram", settings=MICRO), runner=runner)
        api.run(api.RunRequest("tab01", settings=MICRO), runner=runner)
        ids = {entry["experiment_id"] for entry in runner.manifest}
        assert ids == {"sram", "tab01"}

    def test_make_runner_cache_modes(self, tmp_path):
        assert api.make_runner(cache=False).cache is None
        assert api.make_runner(cache=True, cache_dir=tmp_path).cache.root \
            == tmp_path
        store = ResultCache(tmp_path / "elsewhere")
        assert api.make_runner(cache=store).cache is store

    def test_run_experiment_uses_engine_cache(self, tmp_path):
        runner = api.make_runner(jobs=1, cache=True, cache_dir=tmp_path)
        api.run(api.RunRequest("fig17", settings=MICRO), runner=runner)
        warm = api.make_runner(jobs=1, cache=True, cache_dir=tmp_path)
        api.run(api.RunRequest("fig17", settings=MICRO), runner=warm)
        assert warm.stats.cache_hits == len(MICRO.benchmarks)
        assert warm.stats.cache_misses == 0
