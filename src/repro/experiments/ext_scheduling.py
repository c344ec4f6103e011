"""Extension experiment: latency hiding vs work removal (ext-scheduling).

Lines up the refresh-stall cost of the scheduling-side related work
(Elastic Refresh, Refresh Pausing — Sec. II-D) against ZERO-REFRESH and
their combination.  Scheduling policies reshuffle *when* refreshes
stall demand; charge-aware skipping removes the work, so the two
compose multiplicatively.
"""

from __future__ import annotations

from repro.scenarios.spec import ScenarioSpec

SPEC = ScenarioSpec(
    scenario_id="ext-scheduling",
    description="Refresh-stall cost: scheduling policies vs skipping",
    point="repro.experiments.ext_scheduling:scheduling_point",
    point_params={"benchmark": "mcf", "busy_time_fraction": 0.5},
    reduction="table",
    reduction_params={
        "title": "Refresh stall per demand access ({benchmark})",
        "headers": ["policy", "P(collision)", "mean stall ns",
                    "stall/access ns", "vs baseline"],
        "notes": (
            "scheduling hides latency, skipping removes work; they "
            "compose — the paper's mechanism is orthogonal to Elastic "
            "Refresh / Refresh Pausing"
        ),
    },
)


def scheduling_point(settings, job) -> list:
    from repro.controller.refresh_scheduling import (
        BaselineRefreshStall,
        ElasticRefreshQueue,
        RefreshPausingModel,
        zero_refresh_stall,
    )
    from repro.experiments.runner import simulate_benchmark

    benchmark = str(job.params["benchmark"])
    busy_time_fraction = float(job.params["busy_time_fraction"])
    result = simulate_benchmark(settings, benchmark, 1.0)
    timing = settings.config().timing
    norm = result.normalized_refresh

    baseline = BaselineRefreshStall(timing).report()
    elastic = ElasticRefreshQueue(timing).report(busy_time_fraction)
    pausing = RefreshPausingModel(
        timing, rows_per_ar=settings.rows_per_ar
    ).report(busy_time_fraction)
    zero = zero_refresh_stall(timing, norm)
    # Combined: skipping shrinks the busy duty, pausing shrinks the wait
    # of the (busy-phase) collisions that remain.
    combined_collision = zero.collision_probability * busy_time_fraction
    combined_stall = combined_collision * pausing.mean_stall_ns

    def row(report, stall=None):
        stall = report.stall_per_access_ns if stall is None else stall
        return [report.policy, report.collision_probability,
                report.mean_stall_ns, stall,
                stall / baseline.stall_per_access_ns]

    return [
        row(baseline),
        row(elastic),
        row(pausing),
        row(zero),
        ["zero-refresh + pausing", combined_collision,
         pausing.mean_stall_ns, combined_stall,
         combined_stall / baseline.stall_per_access_ns],
    ]
