"""Acceptance: a never-registered ad-hoc sweep runs end-to-end through
the CLI and the api, and repeating it is served from the cache."""

import json
import re

import pytest

import repro.api as api
from repro.experiments.__main__ import main

SWEEP_ARGS = [
    "sweep", "--quick", "--memory-mb", "4", "--windows", "1",
    "--axis", "temperature=NORMAL,EXTENDED",
    "--set", "stages.rotation=false",
    "--benchmarks", "mcf",
    "--json",
]


def engine_counts(err_text):
    match = re.search(r"(\d+) jobs, (\d+) cache hits, (\d+) misses",
                      err_text)
    assert match, f"no engine summary in stderr: {err_text!r}"
    return tuple(int(g) for g in match.groups())


class TestCliSweep:
    def test_sweep_runs_and_repeats_from_cache(self, capsys):
        assert main(SWEEP_ARGS) == 0
        first = capsys.readouterr()
        assert main(SWEEP_ARGS) == 0
        second = capsys.readouterr()

        # identical result bytes, fresh vs cached
        assert first.out == second.out
        result = json.loads(first.out)
        assert result["experiment_id"].startswith("sweep-")
        assert result["headers"] == [
            "temperature", "benchmark", "normalized_refresh",
            "normalized_energy", "ipc.normalized_ipc"]
        assert [row[:2] for row in result["rows"]] == [
            ["NORMAL", "mcf"], ["EXTENDED", "mcf"]]

        jobs, hits, misses = engine_counts(first.err)
        assert (jobs, hits, misses) == (2, 0, 2)
        jobs, hits, misses = engine_counts(second.err)
        assert (jobs, hits, misses) == (2, 2, 0)

    def test_unknown_axis_key_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--axis", "bogus_key=1,2"])
        assert err.value.code == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--benchmarks", "nope"], "unknown benchmark 'nope'"),
        (["--set", "benchmarks=nope"], "unknown benchmark 'nope'"),
        (["--set", "temperature=tropical"], "unknown temperature 'tropical'"),
        (["--set", "seed=null"], "seed must be an int"),
        (["--set", "rows_per_ar=3"], "rows_per_ar=3"),
    ])
    def test_bad_value_is_a_usage_error(self, capsys, flags, message):
        """Rejected while the spec expands, before any job is planned."""
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--quick", "--memory-mb", "4", "--windows", "1",
                  "--axis", "windows=1", "--no-cache", *flags])
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    def test_sweep_flags_require_the_sweep_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig17", "--axis", "temperature=NORMAL"])
        assert "sweep" in capsys.readouterr().err

    def test_sweep_needs_at_least_one_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep"])
        assert "--axis" in capsys.readouterr().err

    def test_list_prints_every_scenario_description(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for scenario_id, spec in api.SCENARIOS.items():
            assert scenario_id in out
            assert spec.description in out


class TestApiSweep:
    def test_spec_request_runs_and_repeats_from_cache(self):
        settings = api.quick_settings(memory_bytes=4 << 20, windows=1)
        spec = api.adhoc_sweep_spec(
            {"temperature": ["NORMAL", "EXTENDED"]},
            overrides={"stages.rotation": False},
            benchmarks=["mcf"],
        )
        runner = api.make_runner(jobs=1)
        first = api.run(api.RunRequest(spec=spec, settings=settings),
                        runner=runner)
        assert first.experiment_id == spec.scenario_id
        assert runner.stats.cache_misses == 2
        second = api.run(api.RunRequest(spec=spec, settings=settings),
                         runner=runner)
        assert second.to_json() == first.to_json()
        assert runner.stats.cache_hits == 2

    def test_run_request_needs_exactly_one_identity(self):
        spec = api.adhoc_sweep_spec({"memory_mb": [4]})
        with pytest.raises(ValueError, match="exactly one"):
            api.run(api.RunRequest())
        with pytest.raises(ValueError, match="exactly one"):
            api.run(api.RunRequest(experiment_id="fig17", spec=spec))

    def test_get_scenario_round_trips_to_runnable_spec(self):
        spec = api.get_scenario("fig17")
        rebuilt = api.ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert api.spec_digest(rebuilt) == api.spec_digest(spec)

    def test_list_scenarios_matches_experiments(self):
        scenarios = api.list_scenarios()
        assert list(scenarios) == api.list_experiments()
        assert all(description for description in scenarios.values())
