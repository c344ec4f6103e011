"""Extension experiment: VRT exposure of retention-aware skipping
(ext-vrt).

The paper dismisses retention-time-based reduction (VRA, RAIDR) because
retention changes dynamically (VRT), silently invalidating a static
profile (Sec. I, II-D).  This experiment quantifies the trade it
alludes to: RAIDR's refresh reduction is excellent, but hours of VRT
leave a growing population of rows refreshed more slowly than their
*current* retention tolerates.  ZERO-REFRESH's skipping is value-based:
a skipped row holds no charge, so its retention time cannot matter, and
rows that do hold charge stay on the standard 64 ms schedule the floor
guarantee covers.

The VRT process is stateful across the hour marks (one shared RNG), so
the whole sweep is a single table point.
"""

from __future__ import annotations

import numpy as np

from repro.scenarios.spec import ScenarioSpec

VRT_HOURS = (0, 1, 4, 16)

SPEC = ScenarioSpec(
    scenario_id="ext-vrt",
    description="RAIDR under VRT drift vs value-aware skipping",
    point="repro.experiments.ext_vrt:vrt_point",
    point_params={"num_rows": 65536, "flips_per_row_per_hour": 0.02},
    reduction="table",
    reduction_params={
        "title": "Retention-aware vs value-aware skipping under VRT",
        "headers": ["mechanism", "norm refresh", "unsafe rows",
                    "unsafe fraction"],
        "notes": (
            "RAIDR reduces more but its static profile accrues rows whose "
            "current retention no longer covers their bin period; "
            "value-based skipping has no retention exposure by "
            "construction (skipped rows hold no charge)"
        ),
    },
)


def vrt_point(settings, job) -> list:
    from repro.baselines.raidr import RaidrScheduler
    from repro.dram.variation import RetentionProfile, VrtProcess
    from repro.experiments.runner import simulate_benchmark

    num_rows = int(job.params["num_rows"])
    flips_per_row_per_hour = float(job.params["flips_per_row_per_hour"])
    rng = np.random.default_rng(settings.seed)
    profile = RetentionProfile.sample(num_rows, rng=rng)
    scheduler = RaidrScheduler(profile)
    vrt = VrtProcess(profile, flips_per_row_per_hour, rng=rng)

    # ZERO-REFRESH on a representative benchmark for the comparison row.
    zr = simulate_benchmark(settings, "mcf", 1.0)

    rows = []
    elapsed = 0.0
    for hours in VRT_HOURS:
        vrt.advance(hours * 3600.0 - elapsed)
        elapsed = hours * 3600.0
        unsafe = vrt.unsafe_rows(scheduler.assigned_period_s)
        rows.append([
            f"RAIDR @ {hours}h VRT",
            1.0 - scheduler.expected_reduction(),
            int(len(unsafe)),
            len(unsafe) / num_rows,
        ])
    rows.append([
        "ZERO-REFRESH (any age)",
        zr.normalized_refresh,
        0,
        0.0,
    ])
    return rows
