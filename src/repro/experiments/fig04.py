"""Fig. 4 — refresh share of device power vs. density and temperature.

Reproduces the Micron-calculator analysis: DDR4-2400, 8 % read / 2 %
write cycles, densities 1-16 Gb, normal (64 ms) and extended (32 ms)
retention.  The paper's headline: at 32 ms, a 16 Gb device spends more
than half its power on refresh.
"""

from __future__ import annotations

from repro.dram.timing import TemperatureMode
from repro.energy.dram_power import DramPowerModel
from repro.scenarios.spec import ScenarioSpec, SweepAxis

DENSITIES_GBIT = (1, 2, 4, 8, 16)

SPEC = ScenarioSpec(
    scenario_id="fig04",
    description="Refresh power share vs density and temperature",
    axes=(
        SweepAxis("params.temperature",
                  values=[TemperatureMode.NORMAL.value,
                          TemperatureMode.EXTENDED.value]),
        SweepAxis("params.density_gbit", values=list(DENSITIES_GBIT)),
    ),
    point="repro.experiments.fig04:power_point",
    reduction="concat_rows",
    reduction_params={
        "title": "Refresh power share vs. device density "
                 "(Micron-style model)",
        "headers": ["temperature", "density", "refresh mW", "total mW",
                    "refresh share"],
        "paper_reference": {"16Gb@32ms refresh share": ">0.50"},
        "notes": "8% read / 2% write bus cycles, DBI-era DDR4 currents "
                 "(Table II)",
    },
)


def power_point(settings, job) -> list:
    """One (temperature, density) cell: its power-breakdown table row."""
    temperature = TemperatureMode.parse(job.params["temperature"])
    density = int(job.params["density_gbit"])
    breakdown = DramPowerModel().device_power(
        density, temperature,
        read_cycle_fraction=0.08, write_cycle_fraction=0.02,
    )
    return [
        temperature.value,
        f"{density} Gb",
        breakdown.refresh_mw,
        breakdown.total_mw,
        breakdown.refresh_share,
    ]
