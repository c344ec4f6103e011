"""Spec expansion: axis binding rules, job digest parity with
hand-written plans, and ad-hoc sweep construction."""

import pytest

from repro.experiments.engine import SIMULATE, SimJob
from repro.experiments.runner import ExperimentSettings
from repro.scenarios.executor import (
    BENCHMARKS_SOURCE,
    adhoc_sweep_spec,
    as_experiment,
    expand,
    resolve_axes,
)
from repro.scenarios.points import SIMULATE_SETTINGS_POINT
from repro.scenarios.spec import ScenarioError, ScenarioSpec, SweepAxis
from repro.transform.codec import StageSelection

SETTINGS = ExperimentSettings(
    memory_bytes=4 << 20, windows=1, benchmarks=("mcf", "bzip2"),
    rows_per_ar=32, seed=3,
)


class TestAxisResolution:
    def test_benchmark_axis_defaults_to_settings_suite(self):
        spec = ScenarioSpec("s", axes=(SweepAxis("benchmark"),))
        axes = resolve_axes(spec, SETTINGS)
        assert axes == {"benchmark": ["mcf", "bzip2"]}

    def test_explicit_values_win_over_source(self):
        spec = ScenarioSpec("s", axes=(
            SweepAxis("benchmark", values=["omnetpp"]),))
        assert resolve_axes(spec, SETTINGS) == {"benchmark": ["omnetpp"]}

    def test_callable_source_resolves(self):
        spec = ScenarioSpec("s", axes=(SweepAxis(
            "params.trace",
            source="repro.experiments.fig05:trace_names"),),
            point="repro.experiments.fig05:cdf_point")
        axes = resolve_axes(spec, SETTINGS)
        assert len(axes["params.trace"]) == 3

    def test_valueless_axis_without_source_fails(self):
        spec = ScenarioSpec("s", axes=(SweepAxis("row_bytes"),
                                       SweepAxis("benchmark")))
        with pytest.raises(ScenarioError, match="row_bytes"):
            resolve_axes(spec, SETTINGS)


class TestSimulateBinding:
    def test_benchmark_axis_matches_handwritten_plan(self):
        """An expanded benchmark sweep is job-for-job identical to the
        loop the figure modules used to write by hand — which is what
        keeps pre-refactor cache entries valid."""
        spec = ScenarioSpec("s", axes=(SweepAxis("benchmark"),))
        jobs = expand(spec, SETTINGS).jobs
        assert jobs == [
            SimJob(benchmark="mcf", seed_offset=0),
            SimJob(benchmark="bzip2", seed_offset=1),
        ]

    def test_allocation_outer_benchmark_inner_row_major(self):
        spec = ScenarioSpec("s", axes=(
            SweepAxis("allocated_fraction", values=[0.5, 1.0]),
            SweepAxis("benchmark"),
        ))
        jobs = expand(spec, SETTINGS).jobs
        assert [(j.allocated_fraction, j.benchmark, j.seed_offset)
                for j in jobs] == [
            (0.5, "mcf", 0), (0.5, "bzip2", 1),
            (1.0, "mcf", 0), (1.0, "bzip2", 1),
        ]

    def test_config_axis_materialises_config_overrides(self):
        spec = ScenarioSpec("s", axes=(
            SweepAxis("row_bytes", values=[2048, 4096]),
            SweepAxis("benchmark", values=["mcf"]),
        ))
        jobs = expand(spec, SETTINGS).jobs
        assert [j.config_overrides for j in jobs] == [
            {"row_bytes": 2048}, {"row_bytes": 4096}]
        assert all(j.fn == SIMULATE for j in jobs)

    def test_static_stage_overrides_materialise_stage_selection(self):
        spec = ScenarioSpec(
            "s", axes=(SweepAxis("benchmark", values=["mcf"]),),
            overrides={"stages.rotation": False},
        )
        job = expand(spec, SETTINGS).jobs[0]
        assert job.config_overrides == {
            "stages": StageSelection(rotation=False)}

    def test_settings_axis_reroutes_through_settings_point(self):
        spec = ScenarioSpec("s", axes=(
            SweepAxis("temperature", values=["NORMAL", "EXTENDED"]),
            SweepAxis("benchmark", values=["mcf"]),
        ))
        jobs = expand(spec, SETTINGS).jobs
        assert [j.fn for j in jobs] == [SIMULATE_SETTINGS_POINT] * 2
        assert [j.params["settings"]["temperature"] for j in jobs] == [
            "NORMAL", "EXTENDED"]

    def test_axis_value_wins_over_static_override(self):
        spec = ScenarioSpec(
            "s",
            axes=(SweepAxis("row_bytes", values=[2048]),
                  SweepAxis("benchmark", values=["mcf"])),
            overrides={"row_bytes": 8192},
        )
        job = expand(spec, SETTINGS).jobs[0]
        assert job.config_overrides == {"row_bytes": 2048}

    def test_overrides_axis_applies_per_cell_mappings(self):
        spec = ScenarioSpec("s", axes=(
            SweepAxis("overrides", values=[
                {"stages.rotation": False}, {}]),
            SweepAxis("benchmark", values=["mcf"]),
        ))
        jobs = expand(spec, SETTINGS).jobs
        assert jobs[0].config_overrides == {
            "stages": StageSelection(rotation=False)}
        assert jobs[1].config_overrides is None

    def test_simulate_needs_a_benchmark_axis(self):
        spec = ScenarioSpec("s", axes=(
            SweepAxis("row_bytes", values=[2048]),))
        with pytest.raises(ScenarioError, match="benchmark"):
            expand(spec, SETTINGS)

    def test_simulate_rejects_point_params(self):
        spec = ScenarioSpec("s", axes=(SweepAxis("benchmark"),),
                            point_params={"x": 1})
        with pytest.raises(ScenarioError, match="custom points"):
            expand(spec, SETTINGS)

    def test_unknown_override_key_fails_eagerly(self):
        spec = ScenarioSpec("s", axes=(
            SweepAxis("bogus_key", values=[1]),
            SweepAxis("benchmark"),
        ))
        with pytest.raises(ScenarioError, match="bogus_key"):
            expand(spec, SETTINGS)


class TestCustomPointBinding:
    def test_params_axes_merge_over_static_point_params(self):
        spec = ScenarioSpec(
            "s",
            axes=(SweepAxis("params.cap_mb", values=[4, 8]),),
            point="repro.experiments.fig19:capacity_point",
            point_params={"benchmark": "mcf"},
        )
        jobs = expand(spec, SETTINGS).jobs
        assert [j.params for j in jobs] == [
            {"benchmark": "mcf", "cap_mb": 4},
            {"benchmark": "mcf", "cap_mb": 8},
        ]
        assert all(j.benchmark == "mcf" for j in jobs)
        assert all(j.fn == "repro.experiments.fig19:capacity_point"
                   for j in jobs)

    def test_point_without_benchmark_param_uses_scenario_id(self):
        spec = ScenarioSpec("solo", point="mod:attr")
        job = expand(spec, SETTINGS).jobs[0]
        assert job.benchmark == "solo"
        assert job.params is None

    @pytest.mark.parametrize("spec", [
        ScenarioSpec("s", point="repro.experiments.fig19:capacity_point",
                     point_params={"benchmark": "nope"}),
        ScenarioSpec("s", axes=(SweepAxis("params.benchmark",
                                          values=["mcf", "nope"]),),
                     point="repro.experiments.fig19:capacity_point"),
    ], ids=["point-param", "params-axis"])
    def test_unknown_benchmark_param_fails_eagerly(self, spec):
        with pytest.raises(ScenarioError, match="unknown benchmark 'nope'"):
            expand(spec, SETTINGS)

    def test_custom_point_rejects_override_axes(self):
        spec = ScenarioSpec(
            "s", axes=(SweepAxis("row_bytes", values=[2048]),),
            point="mod:attr",
        )
        with pytest.raises(ScenarioError, match="params"):
            expand(spec, SETTINGS)


class TestAsExperiment:
    def test_wraps_spec_as_plan_reduce_experiment(self):
        spec = ScenarioSpec(
            "s", axes=(SweepAxis("benchmark"),),
            reduction="sweep_table",
        )
        experiment = as_experiment(spec)
        assert experiment.experiment_id == "s"
        assert len(experiment.plan(SETTINGS)) == 2


class TestAdhocSweepSpec:
    def test_benchmark_axis_appended_innermost(self):
        spec = adhoc_sweep_spec({"temperature": ["NORMAL", "EXTENDED"]})
        assert spec.axis_names() == ["temperature", "benchmark"]
        assert spec.axes[-1].source == BENCHMARKS_SOURCE

    def test_explicit_benchmarks_become_axis_values(self):
        spec = adhoc_sweep_spec({"memory_mb": [4, 8]},
                                benchmarks=["mcf"])
        assert spec.axes[-1].value_list == ["mcf"]

    def test_user_benchmark_axis_is_kept(self):
        spec = adhoc_sweep_spec({"benchmark": ["mcf", "bzip2"]})
        assert spec.axis_names() == ["benchmark"]

    def test_benchmark_axis_and_list_conflict(self):
        with pytest.raises(ScenarioError, match="not both"):
            adhoc_sweep_spec({"benchmark": ["mcf"]}, benchmarks=["mcf"])

    def test_identical_inputs_give_identical_ids(self):
        kwargs = dict(axes={"memory_mb": [4, 8]},
                      overrides={"stages.rotation": False})
        assert adhoc_sweep_spec(**kwargs) == adhoc_sweep_spec(**kwargs)
        assert adhoc_sweep_spec(**kwargs).scenario_id.startswith("sweep-")

    def test_different_inputs_give_different_ids(self):
        a = adhoc_sweep_spec({"memory_mb": [4]})
        b = adhoc_sweep_spec({"memory_mb": [8]})
        assert a.scenario_id != b.scenario_id

    def test_metrics_land_in_reduction_params(self):
        spec = adhoc_sweep_spec({"memory_mb": [4]},
                                metrics=["normalized_refresh"])
        assert spec.reduction_params_dict == {
            "metrics": ["normalized_refresh"]}
