"""Analytical out-of-order core model for refresh-sensitivity (Fig. 17).

Refresh hurts performance through bank unavailability: a demand miss
that arrives while its bank refreshes stalls, refreshes evict open rows
(extra row-buffer misses), and queued requests back up behind the busy
bank (command-queue seizure, Mukundan et al.).  For a fixed core, all
of these scale with (a) how often the program misses to DRAM and (b)
the fraction of time banks are refresh-busy.

The model::

    IPC(u) = base_ipc / (1 + alpha * u)

where ``u`` is the bank-unavailability fraction from
:class:`repro.controller.scheduler.BankAvailabilityModel` and ``alpha``
is the benchmark's *refresh sensitivity* — the queueing amplification
of raw unavailable time, larger for memory-bound programs.  Alphas live
in the benchmark profiles and order the suite as the paper does
(gemsFDTD gains most, gobmk least).  They do not reproduce the paper's
+5.7 % mean.  With ``u0`` = tRFC / tREFI_pb = 28 ns / 3.906 us = 0.717 %
and normalised refresh ``w``, the gain is
``(1 + alpha*u0) / (1 + alpha*u0*w) - 1``.  Its mean over the 23
profiles is +2.50 % at w = 0.671 (the measured Fig. 14 average),
+2.83 % at the paper's w = 0.629 (max +5.76 %), and only +8.11 % at
w = 0, with every refresh skipped.  So the gap to the paper lies in
``alpha * u0``, not in the skip rate.

Normalised IPC (what Fig. 17 plots) is then::

    IPC(u_zero_refresh) / IPC(u_conventional)
      = (1 + alpha * u_conv) / (1 + alpha * u_zr)

which is independent of ``base_ipc`` — reported anyway for absolute
context.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.controller.scheduler import BankAvailabilityModel
from repro.dram.refresh import RefreshStats
from repro.workloads.benchmarks import BenchmarkProfile


@dataclass(frozen=True)
class IpcResult:
    """IPC of one benchmark under baseline and measured refresh."""

    benchmark: str
    baseline_ipc: float
    ipc: float
    baseline_unavailability: float
    unavailability: float

    @property
    def normalized_ipc(self) -> float:
        """IPC relative to conventional refresh (Fig. 17's y-axis)."""
        return self.ipc / self.baseline_ipc

    @property
    def speedup_percent(self) -> float:
        return (self.normalized_ipc - 1.0) * 100.0


class AnalyticalCoreModel:
    """Closed-form refresh-stall IPC model."""

    def __init__(self, availability: BankAvailabilityModel):
        self.availability = availability

    def ipc_at(self, profile: BenchmarkProfile, unavailability: float) -> float:
        """Absolute IPC at a given bank-unavailability fraction."""
        if unavailability < 0:
            raise ValueError("unavailability cannot be negative")
        return profile.base_ipc / (1.0 + profile.refresh_sensitivity * unavailability)

    def evaluate(self, profile: BenchmarkProfile,
                 stats: RefreshStats) -> IpcResult:
        """IPC of a benchmark given its measured refresh statistics."""
        u_base = self.availability.baseline_unavailability
        u_run = self.availability.unavailability(stats)
        return IpcResult(
            benchmark=profile.name,
            baseline_ipc=self.ipc_at(profile, u_base),
            ipc=self.ipc_at(profile, u_run),
            baseline_unavailability=u_base,
            unavailability=u_run,
        )
