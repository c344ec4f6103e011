"""Fig. 19 — Smart Refresh vs. ZERO-REFRESH as capacity scales (mcf).

Smart Refresh skips rows the program touched within the window, so its
normalised refresh is ``1 - touched_fraction`` — and the touched
fraction collapses as installed memory grows past the (fixed) working
set: the paper measures mcf going from 52.6 % normalised refresh at
4 GB to 94.1 % at 32 GB.  ZERO-REFRESH stays roughly flat because value
statistics, not access reach, drive it; per the paper the unused space
is filled with application data (not zeros) to keep the comparison
fair.

Capacities are simulated at 1/1024 scale (4 MB stands for 4 GB, etc.);
all ratio metrics are scale-invariant, and the working set and traffic
are held at a fixed *absolute* size across the sweep exactly as the
paper's fixed benchmark does.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.baselines.smart_refresh import SmartRefreshTracker
from repro.core.zero_refresh import ZeroRefreshSystem
from repro.scenarios.resolve import config_for
from repro.scenarios.spec import ScenarioSpec, SweepAxis
from repro.sim.kernel import SimKernel
from repro.sim.schemes import AccessFeed, SmartRefreshScheme
from repro.workloads.benchmarks import benchmark_profile

CAPACITIES_MB = (4, 8, 16, 32)  # stand-ins for 4/8/16/32 GB

SPEC = ScenarioSpec(
    scenario_id="fig19",
    description="Smart Refresh vs ZERO-REFRESH across capacities (mcf)",
    axes=(SweepAxis("params.cap_mb", values=list(CAPACITIES_MB)),),
    point="repro.experiments.fig19:capacity_point",
    point_params={"benchmark": "mcf"},
    reduction="repro.experiments.fig19:reduce_scenario",
)


def capacity_point(settings, job) -> Tuple[float, float]:
    """One capacity of the sweep: (smart refresh, zero-refresh) normalised.

    Runs in engine workers; everything that determines the outcome is in
    ``settings`` and ``job.params`` so the result is cacheable.
    """
    cap_mb = int(job.params["cap_mb"])
    benchmark = str(job.params["benchmark"])
    profile = benchmark_profile(benchmark)
    smallest_pages = (CAPACITIES_MB[0] << 20) // 4096
    # mcf's per-window *touch* reach is huge (pointer chasing covers
    # about half of a 4 GB machine within 32 ms) but read-dominated:
    # reads recharge rows — which is all Smart Refresh needs — while
    # only the small write stream dirties ZERO-REFRESH's access bits.
    ws_pages_abs = int(0.55 * smallest_pages)
    accesses = ws_pages_abs * 6
    write_fraction = 0.08

    config = config_for(settings, memory_bytes=cap_mb << 20)
    system = ZeroRefreshSystem(config)
    total_pages = system.allocator.total_pages
    system.populate(
        profile,
        allocated_fraction=1.0,
        working_set_fraction=ws_pages_abs / total_pages,
        accesses_per_window=accesses,
        write_fraction=write_fraction,
    )
    result = system.run_windows(settings.windows)

    # Smart Refresh on the same machine and the same traffic, driven
    # through the same kernel as every other scheme.
    tracker = SmartRefreshTracker(config.geometry)
    kernel = SimKernel(
        SmartRefreshScheme(tracker, smart_refresh_feed(system, config)),
        window_s=config.timing.tret_s, name="smart-refresh",
    )
    kernel.run(settings.windows)
    return tracker.stats.normalized_refresh(), result.normalized_refresh


def smart_refresh_feed(system: ZeroRefreshSystem, config) -> "AccessFeed":
    """Per-window (banks, rows) touched, from the system's trace stream."""
    generator = system._trace_generator
    lines_per_page = config.geometry.lines_per_page
    num_banks = config.geometry.num_banks

    def feed():
        trace = generator.window_trace()
        pages = np.unique(trace.line_addrs // lines_per_page)
        return pages % num_banks, pages // num_banks

    return feed


def reduce_scenario(spec, settings, axes, results):
    from repro.experiments.runner import ExperimentResult

    benchmark = spec.point_params_dict["benchmark"]
    rows = [
        [f"{cap_mb} GB", smart, zero]
        for cap_mb, (smart, zero) in zip(axes["params.cap_mb"], results)
    ]
    return ExperimentResult(
        experiment_id=spec.scenario_id,
        title=f"Smart Refresh vs ZERO-REFRESH scalability ({benchmark})",
        headers=["capacity", "smart refresh", "zero-refresh"],
        rows=rows,
        paper_reference={"smart@4GB": 0.526, "smart@32GB": 0.941,
                         "zero-refresh": "~flat"},
        notes="capacities simulated at 1/1024 scale with a fixed working set",
    )
