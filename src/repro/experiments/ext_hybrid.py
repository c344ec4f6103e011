"""Extension experiment: hybrid charge + recency refresh (ext-hybrid).

Extends the Fig. 19 comparison with the combination the paper's
Sec. VI-C invites: ZERO-REFRESH and Smart Refresh skip *disjoint*
refreshes (value statistics vs activation recency), so a hybrid engine
can claim both.  The sweep reuses Fig. 19's fixed-working-set setup and
reports all three mechanisms across capacities.

The hybrid needs a retention guard band (schedule at 32 ms on 64 ms
cells); see :mod:`repro.baselines.hybrid`.
"""

from __future__ import annotations

from typing import Tuple

from repro.baselines.smart_refresh import SmartRefreshTracker
from repro.core.zero_refresh import ZeroRefreshSystem
from repro.experiments.fig19 import CAPACITIES_MB, smart_refresh_feed
from repro.scenarios.resolve import config_for
from repro.scenarios.spec import ScenarioSpec, SweepAxis
from repro.sim.kernel import SimKernel
from repro.sim.schemes import SmartRefreshScheme
from repro.workloads.benchmarks import benchmark_profile

SPEC = ScenarioSpec(
    scenario_id="ext-hybrid",
    description="Hybrid charge+recency refresh across capacities (mcf)",
    axes=(SweepAxis("params.cap_mb", values=list(CAPACITIES_MB)),),
    point="repro.experiments.ext_hybrid:capacity_point",
    point_params={"benchmark": "mcf"},
    reduction="repro.experiments.ext_hybrid:reduce_scenario",
)


def capacity_point(settings, job) -> Tuple[float, float, float]:
    """One capacity: (smart, zero-refresh, hybrid) normalised refresh."""
    cap_mb = int(job.params["cap_mb"])
    benchmark = str(job.params["benchmark"])
    profile = benchmark_profile(benchmark)
    smallest_pages = (CAPACITIES_MB[0] << 20) // 4096
    ws_pages_abs = int(0.55 * smallest_pages)
    accesses = ws_pages_abs * 6
    by_mode = {}
    smart_norm = None
    for mode in ("zero-refresh", "hybrid"):
        config = config_for(settings, memory_bytes=cap_mb << 20,
                            refresh_mode=mode)
        system = ZeroRefreshSystem(config)
        system.populate(
            profile, allocated_fraction=1.0,
            working_set_fraction=ws_pages_abs / system.allocator.total_pages,
            accesses_per_window=accesses, write_fraction=0.08,
        )
        result = system.run_windows(settings.windows)
        if mode == "zero-refresh":
            # Smart Refresh on the same machine/traffic for context,
            # driven through the shared kernel.
            tracker = SmartRefreshTracker(config.geometry)
            kernel = SimKernel(
                SmartRefreshScheme(tracker,
                                   smart_refresh_feed(system, config)),
                window_s=config.timing.tret_s, name="smart-refresh",
            )
            kernel.run(settings.windows)
            smart_norm = tracker.stats.normalized_refresh()
        by_mode[mode] = result.normalized_refresh
    return smart_norm, by_mode["zero-refresh"], by_mode["hybrid"]


def reduce_scenario(spec, settings, axes, results):
    from repro.experiments.runner import ExperimentResult

    benchmark = spec.point_params_dict["benchmark"]
    rows = [
        [f"{cap_mb} GB", smart, zero, hybrid]
        for cap_mb, (smart, zero, hybrid)
        in zip(axes["params.cap_mb"], results)
    ]
    return ExperimentResult(
        experiment_id=spec.scenario_id,
        title=f"Hybrid charge+recency refresh across capacities ({benchmark})",
        headers=["capacity", "smart refresh", "zero-refresh", "hybrid"],
        rows=rows,
        notes=(
            "hybrid <= zero-refresh everywhere; the recency component "
            "helps most where Smart Refresh alone is strong (small "
            "capacities), needs a 2x retention guard band, and is "
            "granularity-limited: a skip requires the whole 8-row "
            "rotation diagonal activated"
        ),
    )
