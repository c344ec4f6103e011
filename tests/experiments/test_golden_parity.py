"""Golden parity: every migrated experiment still produces the exact
bytes the hand-written per-figure modules produced, and fig19 the
exact simulated metrics.

``golden_micro.json`` was captured from the pre-scenario-layer code at
micro settings (4 MB, 1 window, 4 benchmarks).  Each test runs the
spec-driven replacement at the same settings and asserts the rendered
JSON is byte-identical — title, headers, row order, paper-reference
key order, float formatting, everything.  A shared module-scope runner
keeps the wall time down: the figures share many simulation points, so
later experiments replay earlier ones from the cache.

``golden_metrics.json`` is the merged metrics manifest of fig19 at
quick scale with invariant checks on: every counter, histogram, gauge
and invariant total the run produces.
"""

import json
from pathlib import Path

import pytest

import repro.api as api
from repro.experiments import REGISTRY
from repro.experiments.cache import ResultCache

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_micro.json").read_text())
GOLDEN_METRICS = json.loads(
    (Path(__file__).parent / "golden_metrics.json").read_text())

MICRO = api.default_settings(
    memory_bytes=4 << 20, windows=1,
    benchmarks=("gemsFDTD", "mcf", "bzip2", "omnetpp"),
    rows_per_ar=32, seed=3,
)


@pytest.fixture(scope="module")
def shared_runner(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("golden-cache"))
    return api.make_runner(jobs=2, cache=cache)


def test_golden_fixture_covers_the_whole_registry():
    assert set(GOLDEN) == set(REGISTRY)


@pytest.mark.parametrize("experiment_id", list(GOLDEN))
def test_output_is_byte_identical_to_seed(experiment_id, shared_runner):
    result = api.run(api.RunRequest(experiment_id, settings=MICRO),
                     runner=shared_runner)
    assert result.to_json(indent=2) == GOLDEN[experiment_id]


def test_fig19_metrics_equal_the_golden():
    """The simulator is seeded, so any changed number here means
    simulated behaviour changed; the compare is exact.  After an
    intentional change, run::

        PYTHONPATH=src python -m repro.experiments fig19 --quick \\
            --watchdog --no-cache --metrics-json m.json

    and commit its ``merged`` object as the golden, written with
    ``json.dumps(merged, indent=2, sort_keys=True)`` and a newline.
    """
    runner = api.make_runner(jobs=1, cache=False, watchdog=True)
    api.run(api.RunRequest("fig19", settings=api.quick_settings()),
            runner=runner)
    assert runner.stats.jobs == 4
    assert runner.metrics_manifest()["merged"] == GOLDEN_METRICS
