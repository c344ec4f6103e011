"""Fast tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run as bench
from checks import check
from rep import run_rep
import speed as speed_module
from speed import Speedometer, host_speed
from tracing import (JOB_TARGET, LAYER_SPANS, PROCESS_AR_TARGET,
                     REFRESH_TARGET, Tracer, _resolve, summarize)
from workloads import SCALES, WORKLOADS, canonical

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)


def patched_attributes():
    """Identity of every attribute the tracer replaces."""
    targets = [(m, p) for m, p, _, _ in LAYER_SPANS]
    targets += [REFRESH_TARGET, PROCESS_AR_TARGET, JOB_TARGET]
    out = {}
    for module, path in targets:
        owner, attr = _resolve(module, path)
        value = (owner.__dict__[attr] if isinstance(owner, type)
                 else getattr(owner, attr))
        out[(module, path)] = value
    return out


def same_objects(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_benchmark_json_names_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        name for name, _ in bench.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [
        name for name, _ in bench.PER_LAYER]


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"),
                                           (True, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    run = bench.measure("trace-replay", 3, seconds=0.1, trace=trace,
                        scale="tiny", root=ROOT)
    result = bench.result_line(run, trace)
    assert result["correct"], run["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_outputs_other_seed_other_inputs(workload, tmp_path):
    a = run_rep(workload, 3, "untraced", "tiny", workdir=tmp_path)
    b = run_rep(workload, 3, "untraced", "tiny", workdir=tmp_path)
    c = run_rep(workload, 4, "untraced", "tiny", workdir=tmp_path)
    for record in (a, b, c):
        assert record["error"] is None, record["error"]
    assert a["input_digest"] == b["input_digest"]
    assert canonical(a["outputs"]) == canonical(b["outputs"])
    assert a["input_digest"] != c["input_digest"]
    assert canonical(a["outputs"]) != canonical(c["outputs"])


@pytest.mark.parametrize("workload", NAMES)
def test_traced_outputs_equal_untraced_outputs(workload, tmp_path):
    before = patched_attributes()
    untraced = run_rep(workload, 5, "untraced", "tiny", workdir=tmp_path)
    traced = run_rep(workload, 5, "traced", "tiny", workdir=tmp_path)
    assert same_objects(patched_attributes(), before)
    assert traced["error"] is None, traced["error"]
    assert canonical(traced["outputs"]) == canonical(untraced["outputs"])
    layers = traced["layers"]
    assert layers["conservation_errors"] == 0
    assert layers["counts"]["dram.groups_refreshed"] > 0
    ops = WORKLOADS[workload](0, SCALES["tiny"]).operations
    assert check(workload, traced, None, ops) == (0, [])


def test_patches_restored_after_an_error(tmp_path, monkeypatch):
    from repro.cpu import TraceDrivenDriver

    def broken(self, trace, n_windows):
        self.replay(trace.slice(0, 10))
        raise RuntimeError("replay failed")

    monkeypatch.setattr(TraceDrivenDriver, "run", broken)
    before = patched_attributes()
    record = run_rep("trace-replay", 3, "traced", "tiny", workdir=tmp_path)
    assert "replay failed" in record["error"]
    assert record["layers"]["calls"]["cpu.replay"] == 1
    assert same_objects(patched_attributes(), before)
    assert check("trace-replay", record, None, 1)[0] == 1

    with pytest.raises(KeyError):
        with Tracer():
            assert not same_objects(patched_attributes(), before)
            raise KeyError("inside the traced region")
    assert same_objects(patched_attributes(), before)


def test_a_changed_output_is_a_failed_operation(tmp_path):
    record = run_rep("capacity-sweep", 3, "untraced", "tiny",
                     workdir=tmp_path)
    expected = json.loads(canonical(record["outputs"]))
    assert check("capacity-sweep", record, expected, 1) == (0, [])
    record["outputs"]["jobs"][0]["counters"]["refresh.groups_skipped"] += 1
    failed, problems = check("capacity-sweep", record, expected, 1)
    assert failed == 1
    assert any("not conserved" in p for p in problems)
    assert any("differs from expected" in p for p in problems)


def test_self_time_is_span_minus_children(monkeypatch):
    module = types.ModuleType("perfbench_fake_layers")

    def inner(n):
        return sum(range(n))

    def outer(n):
        return module.inner(n) + module.inner(n)

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    targets = [(module.__name__, "outer", "core.populate", None),
               (module.__name__, "inner", "transform.ebdi", None)]
    with Tracer(targets) as tracer:
        module.outer(20000)
    assert module.outer is outer and module.inner is inner
    layers = summarize(tracer, 1.0, {"outer": ("core.populate",)})
    assert layers["calls"]["core.populate"] == 1
    assert layers["calls"]["transform.ebdi"] == 2
    total = (layers["self_s"]["core.populate"]
             + layers["self_s"]["transform.ebdi"])
    assert total == pytest.approx(layers["inclusive_s"]["outer"])
    assert layers["unattributed_s"] == pytest.approx(
        1.0 - layers["inclusive_s"]["outer"])


def test_host_speed_weights_each_cpu_by_its_busy_ticks():
    def at(speed):
        return {name: speed for name in speed_module.KERNELS}

    # (time, busy ticks so far, stolen ticks so far, kernel speeds):
    # cpu 0 busy at half speed, cpu 1 idle at full speed, ticks stolen
    samples = {0: [(0.0, 0, 0, at(0.5)), (1.0, 100, 0, at(0.5)),
                   (2.0, 200, 0, at(0.5))],
               1: [(0.0, 0, 0, at(1.0)), (1.0, 0, 30, at(1.0)),
                   (2.0, 0, 60, at(1.0))]}
    assert host_speed(samples, 0.0, 2.0) == (pytest.approx(0.5), 0.0)
    samples[1] = [(0.0, 0, 0, at(1.0)), (1.0, 100, 50, at(1.0)),
                  (2.0, 100, 50, at(1.0))]
    # the second half only: cpu 1 did no work then
    assert host_speed(samples, 1.5, 2.0) == (pytest.approx(0.5), 0.0)
    # the first half: both busy alike, half of cpu 1's steal counts
    speed, stolen = host_speed(samples, 0.5, 1.0)
    assert speed == pytest.approx(0.75)
    assert stolen == pytest.approx(0.5 * 25 * speed_module.TICK_S)
    idle = {0: [(0.0, 0, 0, at(0.5)), (1.0, 0, 0, at(0.5))],
            1: [(0.0, 0, 0, at(1.0)), (1.0, 0, 0, at(1.0))]}
    assert host_speed(idle, 0.0, 1.0) == (pytest.approx(0.75), 0.0)
    with pytest.raises(ValueError):
        host_speed(idle, 3.0, 4.0)
    # only the named kernels count, by their geometric mean
    mixed = {0: [(0.0, 0, 0, {"loop": 0.25, "copy": 1.0}),
                 (1.0, 10, 0, {"loop": 0.25, "copy": 1.0})]}
    assert host_speed(mixed, 0.0, 1.0, ("loop",))[0] == pytest.approx(0.25)
    assert host_speed(mixed, 0.0, 1.0, ("loop", "copy"))[0] == (
        pytest.approx(0.5))


def test_speedometer_stops_every_probe_also_after_an_error(tmp_path):
    with pytest.raises(KeyError):
        with Speedometer(tmp_path) as meter:
            procs = list(meter.procs.values())
            assert procs and all(p.poll() is None for p in procs)
            raise KeyError("inside the measured region")
    assert all(p.returncode is not None for p in procs)
    samples = meter.samples()
    assert all(rows and all(min(speeds.values()) > 0
                            for *_, speeds in rows)
               for rows in samples.values())
    assert {name for rows in samples.values() for *_, speeds in rows
            for name in speeds} == set(speed_module.KERNELS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
