"""Per-job metrics capture through the engine.

The acceptance bar for the metrics pipeline: the merged manifest is a
property of the *plan*, not of how it executed — fan-out width, cache
warmth and completion order must not change a single number.  Snapshots
hold no wall-clock time, so whole manifests compare equal.
"""

import json

from repro.experiments import REGISTRY, ExperimentSettings
from repro.experiments.cache import ResultCache
from repro.experiments.engine import Runner, SimJob
from repro.obs import ProbeBus, use_probes
from repro.obs.spans import phase_seconds

MICRO = ExperimentSettings(
    memory_bytes=4 << 20,
    windows=1,
    benchmarks=("gemsFDTD", "omnetpp"),
    rows_per_ar=32,
    seed=3,
)


def _deterministic(manifest):
    """The manifest minus its runs section, whose run ids differ across
    rerun scenarios."""
    doc = json.loads(json.dumps(manifest))
    doc.pop("runs", None)
    return doc


class TestFanOutTransparency:
    def test_parallel_merged_metrics_equal_serial(self):
        serial = Runner(jobs=1, cache=None)
        parallel = Runner(jobs=2, cache=None)
        experiment = REGISTRY["fig17"]
        serial.run_experiment(experiment, MICRO)
        parallel.run_experiment(experiment, MICRO)
        a = serial.metrics_manifest()
        b = parallel.metrics_manifest()
        assert a == b
        # and the metrics are real, not empty shells
        assert a["merged"]["counters"]["sim.windows"] > 0
        assert a["merged"]["histograms"]["sim.window_skip_rate"]["count"] > 0
        assert [e["digest"] for e in a["jobs"]] == [
            e["digest"] for e in b["jobs"]
        ]

    def test_duplicate_jobs_counted_once(self):
        runner = Runner(jobs=1, cache=None)
        job = SimJob(benchmark="gemsFDTD")
        runner.run_jobs("dup", MICRO, [job, job, job])
        manifest = runner.metrics_manifest()
        assert len(manifest["jobs"]) == 1
        single = Runner(jobs=1, cache=None)
        single.run_jobs("dup", MICRO, [job])
        assert manifest["merged"] == single.metrics_manifest()["merged"]


class TestCacheReplay:
    def test_warm_run_replays_stored_metrics(self, tmp_path):
        cache = ResultCache(tmp_path)
        experiment = REGISTRY["fig17"]
        cold = Runner(jobs=1, cache=cache)
        cold.run_experiment(experiment, MICRO)
        warm = Runner(jobs=1, cache=cache)
        warm.run_experiment(experiment, MICRO)
        assert warm.stats.cache_hits == len(MICRO.benchmarks)
        # stored snapshots replay verbatim: the full manifests match
        assert warm.metrics_manifest() == cold.metrics_manifest()

    def test_watchdog_findings_survive_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        experiment = REGISTRY["fig17"]
        cold = Runner(jobs=1, cache=cache, watchdog=True)
        cold.run_experiment(experiment, MICRO)
        warm = Runner(jobs=1, cache=cache, watchdog=True)
        warm.run_experiment(experiment, MICRO)
        for runner in (cold, warm):
            inv = runner.merged_metrics["invariants"]
            assert inv["checks"] > 0
            assert inv["violation_count"] == 0, inv
        assert (cold.merged_metrics["invariants"]
                == warm.merged_metrics["invariants"])

    def test_unwatched_runs_have_no_invariants_section(self):
        runner = Runner(jobs=1, cache=None)
        runner.run_experiment(REGISTRY["fig17"], MICRO)
        assert "invariants" not in runner.merged_metrics


class TestAmbientReplay:
    def test_cold_and_warm_ambient_counters_match(self, tmp_path):
        """With --profile/--trace style instrumentation installed, a
        cache-served run reports the same simulation counters on the
        ambient bus as the run that computed them."""
        cache = ResultCache(tmp_path)
        experiment = REGISTRY["fig17"]

        cold_bus, cold = ProbeBus(), Runner(jobs=1, cache=cache)
        with use_probes(cold_bus):
            cold.run_experiment(experiment, MICRO)
        warm_bus, warm = ProbeBus(), Runner(jobs=1, cache=cache)
        with use_probes(warm_bus):
            warm.run_experiment(experiment, MICRO)

        assert warm_bus.counters == cold_bus.counters
        assert (warm_bus.snapshot()["histograms"]
                == cold_bus.snapshot()["histograms"])
        # executed jobs leave phase spans (the --profile source); cache
        # hits do not pretend to have spent the original wall time
        assert "measure" in phase_seconds(cold.span_records)
        assert phase_seconds(warm.span_records) == {}

    def test_fork_streams_events_to_live_sink(self):
        from repro.obs import ListTraceSink

        sink = ListTraceSink()
        bus = ProbeBus(trace=sink)
        with use_probes(bus):
            Runner(jobs=1, cache=None).run_jobs(
                "trace", MICRO, [SimJob(benchmark="gemsFDTD")]
            )
        assert sink.events_written > 0
        seqs = [rec["seq"] for rec in sink.records]
        assert seqs == sorted(seqs)


class TestManifestFile:
    def test_write_metrics_manifest(self, tmp_path):
        runner = Runner(jobs=1, cache=None, watchdog=True)
        runner.run_experiment(REGISTRY["fig17"], MICRO)
        path = tmp_path / "out" / "metrics.json"
        runner.write_metrics_manifest(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"merged", "jobs", "runs"}
        assert doc["merged"]["counters"]["sim.windows"] > 0
        assert doc["merged"]["invariants"]["violation_count"] == 0
        assert len(doc["jobs"]) == len(MICRO.benchmarks)
        # cache-less runs have no recorded run id but always a trace id
        (run,) = doc["runs"]
        assert run["experiment_id"] == "fig17"
        assert run["run_id"] is None
        assert len(run["trace_id"]) == 16
