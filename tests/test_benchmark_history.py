"""The BENCH trajectory in ``benchmarks/history/`` stays readable.

Each ``*.jsonl`` file holds one line per ``perfbench/run.py`` run of a
change's before/after pairs: which side ran (``parent`` or ``change``),
the workload, its seed, the pair number and the run's metrics.  A line
that names an unknown workload or metric, or gives a metric another
unit than ``BENCHMARK.json`` does, or a pair that lacks a side or has
one twice, would make the trajectory unreadable without anyone
noticing; these tests read every line.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HISTORY = sorted((ROOT / "benchmarks" / "history").glob("*.jsonl"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
UNITS = {kind: {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}
         for kind in ("end_to_end", "per_layer")}
KEYS = {"commit", "pair", "run", "seed", "side", "workload"}


def records(path: Path):
    with path.open() as f:
        for number, line in enumerate(f, 1):
            yield number, json.loads(line)


def kind_of(metrics: dict) -> str:
    """``per_layer`` for a traced run (it reports layer metrics), else
    ``end_to_end``."""
    return ("per_layer" if set(metrics) & set(UNITS["per_layer"])
            else "end_to_end")


def test_the_trajectory_exists():
    # the parametrized tests below would pass on an empty glob
    assert HISTORY and all(path.stat().st_size for path in HISTORY)


@pytest.mark.parametrize("path", HISTORY, ids=lambda path: path.name)
def test_every_line_names_known_workloads_and_metrics(path):
    for number, record in records(path):
        where = f"{path.name}:{number}"
        assert set(record) == KEYS, where
        assert record["side"] in ("parent", "change"), where
        assert record["workload"] in WORKLOADS, where
        metrics = record["run"]["metrics"]
        assert metrics, where
        for name, metric in metrics.items():
            units = [units[name] for units in UNITS.values() if name in units]
            assert units, f"{where}: unknown metric {name}"
            assert metric["unit"] == units[0], f"{where}: {name}"


@pytest.mark.parametrize("path", HISTORY, ids=lambda path: path.name)
def test_every_pair_has_one_run_per_side(path):
    sides = Counter()
    for _, record in records(path):
        pair = (record["workload"], record["seed"], record["pair"],
                kind_of(record["run"]["metrics"]))
        sides[pair + (record["side"],)] += 1
    pairs = {key[:-1] for key in sides}
    for pair in pairs:
        assert (sides[pair + ("parent",)], sides[pair + ("change",)]) == (1, 1), (
            f"{path.name}: pair {pair}")
