"""The benchmark's three workloads, built on ``repro``'s public API.

Each workload is closed loop with one client: the next operation starts
when the previous one has finished.  A workload object is made in three
steps so that the caller can time them apart:

``setup()``
    build the runner or the simulated system (counted as set-up time);
``make_inputs()``
    generate the benchmark's own inputs from the seed (not timed);
``run()``
    the timed region; returns the outputs the checks compare.

``repro`` is imported inside the methods, so the driver process that
only spawns and aggregates runs never loads it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload; ``full`` is what the benchmark measures,
    ``tiny`` what its own tests run."""

    capacities_mb: Tuple[int, ...] = (4, 8, 16, 32)
    sweep_windows: int = 2
    traffic_memory_mb: int = 4
    traffic_windows: int = 48
    traffic_benchmarks: Tuple[str, ...] = ("mcf", "omnetpp")
    replay_memory_mb: int = 2
    replay_accesses: int = 100_000
    replay_windows: int = 8


SCALES: Dict[str, Scale] = {
    "full": Scale(),
    "tiny": Scale(capacities_mb=(4,), sweep_windows=1, traffic_windows=2,
                  traffic_benchmarks=("mcf",), replay_accesses=4_000,
                  replay_windows=2),
}

# fig14's allocation levels: 100/88/70/28 %
FIG14_LEVELS = 4
# The speed probes' kernels (speed.py) whose slowdown a workload's time
# follows; the interpreter's, for a workload that spends its time in
# Python code.  Each workload names its own as ``speed_kernels``.
INTERPRETER = ("objects",)
# ZeroRefreshSystem.run_windows refreshes one unmeasured warmup window
# before the measured ones (its default, used by fig14 and fig19)
WARMUP_WINDOWS = 1


def _plain(value):
    return value.item() if hasattr(value, "item") else value


def _job_counters(snapshot: Optional[dict]) -> dict:
    """The integer simulation counters of one engine job."""
    counters = (snapshot or {}).get("counters", {})
    return {name: int(value) for name, value in sorted(counters.items())
            if isinstance(value, int)}


class EngineWorkload:
    """A registered experiment run through ``repro.api.run``."""

    name = ""
    experiment_id = ""
    pooled = False
    """Whether jobs fan out over worker processes unless ``in_process``."""
    speed_kernels = INTERPRETER

    def __init__(self, seed: int, scale: Scale, in_process: bool = False,
                 workdir: Optional[Path] = None):
        self.seed = seed
        self.scale = scale
        self.in_process = in_process
        self.workdir = workdir
        self.runner = None
        self.request = None
        self.cache_dir: Optional[Path] = None

    def make_inputs(self) -> str:
        """Engine workloads take the seed through their settings, so the
        experiment and its settings are their input."""
        inputs = (self.experiment_id, self.settings, self.scale)
        return hashlib.sha256(repr(inputs).encode()).hexdigest()

    def run(self) -> dict:
        import repro.api as api

        try:
            result = api.run(self.request, runner=self.runner)
        finally:
            # the pool backend has shut down and reaped its workers when
            # run() returns; close() releases the rest, so RUSAGE_CHILDREN
            # read after this counts every worker
            self.runner.close()
        return self.outputs(result)

    def engine_stats(self) -> dict:
        stats = self.runner.stats
        return {"jobs": stats.jobs, "job_s_sum": stats.sim_seconds,
                "retries": stats.retries, "workers": self.runner.jobs,
                "failures": len(self.runner.failures)}

    def cleanup(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def _job_snapshots(self) -> List[dict]:
        """Per-job counters in plan order (the manifest and the merged
        metric entries both follow the plan)."""
        by_digest = {entry["digest"]: entry["metrics"]
                     for entry in self.runner.metrics_entries}
        return [_job_counters(by_digest.get(job["digest"]))
                for job in self.runner.manifest]

    def outputs(self, result) -> dict:
        raise NotImplementedError


class CapacitySweep(EngineWorkload):
    """fig19 at quick scale: mcf at 4/8/16/32 MB, serial, cache off."""

    name = "capacity-sweep"
    experiment_id = "fig19"
    # bulk encode runs NumPy kernels over hundreds of MB: its time
    # follows memory as much as the interpreter
    speed_kernels = ("loop", "copy", "gather")

    @property
    def operations(self) -> int:
        return len(self.scale.capacities_mb)

    def setup(self) -> None:
        import repro.api as api

        settings = api.quick_settings(seed=self.seed,
                                      windows=self.scale.sweep_windows)
        spec = api.get_scenario(self.experiment_id)
        spec = replace(spec, axes=(api.SweepAxis(
            "params.cap_mb", values=list(self.scale.capacities_mb)),))
        self.settings = settings
        self.request = api.RunRequest(spec=spec, settings=settings, jobs=1,
                                      cache=False)
        self.runner = api.make_runner(jobs=1, cache=False)

    def outputs(self, result) -> dict:
        from repro.core.config import SystemConfig

        data = result.to_dict()
        counters = self._job_snapshots()
        jobs = []
        for index, cap_mb in enumerate(self.scale.capacities_mb):
            geometry = SystemConfig.scaled(
                total_bytes=cap_mb << 20,
                rows_per_ar=self.settings.rows_per_ar).geometry
            row = data["rows"][index] if index < len(data["rows"]) else None
            jobs.append({
                "key": f"{cap_mb} MB",
                "row": row,
                "counters": counters[index] if index < len(counters) else {},
                "geometry": _geometry(geometry, self.settings.windows),
            })
        return {"title": data["title"], "rows": data["rows"],
                "paper_reference": data["paper_reference"], "jobs": jobs}


class WindowTraffic(EngineWorkload):
    """fig14 over two high-MPKI benchmarks with dozens of windows:
    pool of two workers, cache on in a fresh directory."""

    name = "window-traffic"
    experiment_id = "fig14"
    pooled = True

    @property
    def operations(self) -> int:
        return FIG14_LEVELS * len(self.scale.traffic_benchmarks)

    def setup(self) -> None:
        import repro.api as api

        self.settings = api.ExperimentSettings(
            memory_bytes=self.scale.traffic_memory_mb << 20,
            windows=self.scale.traffic_windows,
            benchmarks=self.scale.traffic_benchmarks,
            rows_per_ar=16,
            seed=self.seed,
        )
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-",
                                               dir=self.workdir))
        jobs = 1 if self.in_process else 2
        self.request = api.RunRequest(self.experiment_id,
                                      settings=self.settings, jobs=jobs,
                                      cache_dir=self.cache_dir)
        self.runner = api.make_runner(jobs=jobs, cache_dir=self.cache_dir)

    def outputs(self, result) -> dict:
        import repro.api as api
        from repro.core.config import SystemConfig

        data = result.to_dict()
        levels = api.get_scenario(self.experiment_id).axes[0].value_list
        geometry = _geometry(
            SystemConfig.scaled(total_bytes=self.settings.memory_bytes,
                                rows_per_ar=self.settings.rows_per_ar
                                ).geometry,
            self.settings.windows)
        rows = {row[0]: row[1:] for row in data["rows"]}
        counters = self._job_snapshots()
        jobs = []
        for index, job in enumerate(self.runner.manifest):
            level = levels.index(job["allocated_fraction"])
            cells = rows.get(job["benchmark"])
            jobs.append({
                "key": f"{job['benchmark']}@{job['allocated_fraction']}",
                "row": cells[level] if cells and level < len(cells) else None,
                "counters": counters[index],
                "geometry": geometry,
            })
        return {"title": data["title"], "rows": data["rows"],
                "paper_reference": data["paper_reference"], "jobs": jobs}


class TraceReplay:
    """A 4-core program trace replayed through a scaled Table II cache
    hierarchy into a small, fully allocated ZERO-REFRESH system."""

    name = "trace-replay"
    operations = 1
    pooled = False
    speed_kernels = INTERPRETER
    profile = "mcf"
    hot_pages = 256  # 1 MB of hot data: twice the scaled LLC

    def __init__(self, seed: int, scale: Scale, in_process: bool = False,
                 workdir: Optional[Path] = None):
        self.seed = seed
        self.scale = scale
        self.trace = None

    def setup(self) -> None:
        from repro import SystemConfig, ZeroRefreshSystem
        from repro.cache import CacheHierarchy
        from repro.workloads import benchmark_profile

        self.config = SystemConfig.scaled(
            total_bytes=self.scale.replay_memory_mb << 20, rows_per_ar=16,
            seed=self.seed)
        self.system = ZeroRefreshSystem(self.config)
        self.system.populate(benchmark_profile(self.profile),
                             allocated_fraction=1.0, accesses_per_window=0)
        # Table II ratios scaled down so the hot region overflows the
        # LLC (128 KB per core) and its misses and writebacks reach DRAM
        self.hierarchy = CacheHierarchy(
            num_cores=self.config.num_cores, l1_bytes=8 << 10, l1_ways=8,
            llc_bytes_per_core=128 << 10, llc_ways=32)

    def make_inputs(self) -> str:
        import numpy as np
        from repro.cpu import ProgramTrace

        rng = np.random.default_rng([self.seed, 1])
        pages = np.sort(self.system.allocator.allocated_pages)
        start = int(rng.integers(0, len(pages) - self.hot_pages + 1))
        self.trace = ProgramTrace.generate(
            pages[start:start + self.hot_pages],
            n_accesses=self.scale.replay_accesses,
            num_cores=self.config.num_cores,
            lines_per_page=self.config.geometry.lines_per_page,
            write_fraction=0.25, rng=rng)
        digest = hashlib.sha256()
        for array in (self.trace.core, self.trace.line_addr,
                      self.trace.is_write):
            digest.update(array.tobytes())
        return digest.hexdigest()

    def run(self) -> dict:
        from repro.cpu import TraceDrivenDriver

        driver = TraceDrivenDriver(self.system, self.hierarchy)
        stats = driver.run(self.trace, n_windows=self.scale.replay_windows)
        return self.outputs(driver, stats)

    def outputs(self, driver, stats) -> dict:
        hierarchy = driver.hierarchy
        controller = self.system.controller
        return {
            "refresh": {k: _plain(v) for k, v in sorted(vars(stats).items())},
            "normalized_refresh": _plain(stats.normalized_refresh()),
            "dram_reads": driver.dram_reads,
            "dram_writes": driver.dram_writes,
            "line_reads": controller.line_reads,
            "line_writes": controller.line_writes,
            "l1_hits": [l1.hits for l1 in hierarchy.l1],
            "l1_misses": [l1.misses for l1 in hierarchy.l1],
            "llc_hits": hierarchy.llc.hits,
            "llc_misses": hierarchy.llc.misses,
            "llc_writebacks": hierarchy.llc.writebacks,
            "integrity": bool(self.system.verify_integrity()),
            "geometry": _geometry(self.config.geometry,
                                  self.scale.replay_windows,
                                  warmup=0),
        }

    def engine_stats(self) -> dict:
        return {"jobs": 0, "job_s_sum": 0.0, "retries": 0, "workers": 1,
                "failures": 0}

    def cleanup(self) -> None:
        pass


def _geometry(geometry, windows: int, warmup: int = WARMUP_WINDOWS) -> dict:
    """What the group-conservation check needs to know of a memory."""
    return {"banks": geometry.num_banks,
            "ar_sets": geometry.ar_sets_per_bank,
            "rows_per_ar": geometry.rows_per_ar,
            "windows": windows + warmup}


WORKLOADS = {cls.name: cls for cls in (CapacitySweep, WindowTraffic,
                                       TraceReplay)}


def operations(name: str, scale: str = "full") -> int:
    """Operations (jobs, or replays) one run of a workload attempts."""
    cls = WORKLOADS[name]
    return cls(0, SCALES[scale]).operations


def canonical(outputs: dict) -> str:
    """Byte-stable JSON form of outputs, for exact comparison."""
    return json.dumps(outputs, sort_keys=True)
