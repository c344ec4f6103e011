"""Process lifecycle model: allocation churn over time (Sec. III-B).

The unallocated-page benefit of ZERO-REFRESH depends on memory demand
*fluctuating*: processes arrive, grow, and exit, and under zero-on-free
the pages they leave behind are skippable until reused.  This module
simulates that churn:

* :class:`Process` — a tenant holding pages for a bounded lifetime;
* :class:`ProcessLifecycle` — a birth/death process targeting a mean
  utilisation level, applied to a live
  :class:`~repro.core.zero_refresh.ZeroRefreshSystem` between retention
  windows (allocations are populated with the process's workload
  content; frees go through the allocator's cleansing policy).

This gives the data-center scenarios dynamics instead of a fixed
allocation fraction — the setting where zero-on-free vs zero-on-alloc
policies actually differ, exercised by the policy-comparison tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.workloads.benchmarks import BenchmarkProfile


@dataclass
class Process:
    """A tenant process occupying pages for a bounded lifetime."""

    pid: int
    pages: np.ndarray
    windows_left: int
    profile_name: str


class ProcessLifecycle:
    """Birth/death allocation churn over a running system.

    Parameters
    ----------
    system:
        A populated or empty :class:`ZeroRefreshSystem`.
    profile:
        Content profile for arriving processes.
    target_utilization:
        Long-run allocated fraction the arrival rate aims for.
    mean_size_pages / mean_lifetime_windows:
        Process size and lifetime distributions (geometric).
    """

    def __init__(
        self,
        system,
        profile: BenchmarkProfile,
        target_utilization: float = 0.7,
        mean_size_pages: int = 128,
        mean_lifetime_windows: int = 8,
        rng: Optional[np.random.Generator] = None,
    ):
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError("target_utilization must be in (0, 1]")
        self.system = system
        self.profile = profile
        self.target = target_utilization
        self.mean_size = mean_size_pages
        self.mean_lifetime = mean_lifetime_windows
        self.rng = rng or np.random.default_rng()
        self.processes: List[Process] = []
        self._next_pid = 0
        self.arrivals = 0
        self.departures = 0

    # ------------------------------------------------------------------
    @property
    def utilization(self) -> float:
        return self.system.allocator.allocated_fraction

    def _spawn(self) -> Optional[Process]:
        size = min(
            1 + int(self.rng.geometric(1.0 / self.mean_size)),
            len(self.system.allocator.free_pages),
        )
        if size <= 0:
            return None
        pages = self.system.allocator.allocate(size, self.system.time_s)
        pages = np.sort(pages)
        self.system.fill_pages(pages, self.profile, self.rng, notify=True)
        lifetime = 1 + int(self.rng.geometric(1.0 / self.mean_lifetime))
        process = Process(self._next_pid, pages, lifetime, self.profile.name)
        self._next_pid += 1
        self.processes.append(process)
        self.arrivals += 1
        return process

    def _reap(self) -> None:
        survivors = []
        for process in self.processes:
            process.windows_left -= 1
            if process.windows_left <= 0:
                self.system.allocator.free(process.pages, self.system.time_s)
                self.departures += 1
            else:
                survivors.append(process)
        self.processes = survivors

    def step(self) -> None:
        """One window of churn: age/exit processes, spawn toward target."""
        self._reap()
        guard = 0
        while self.utilization < self.target and guard < 1000:
            if self._spawn() is None:
                break
            guard += 1

    # ------------------------------------------------------------------
    def run(self, n_windows: int) -> List:
        """Interleave churn steps with refresh windows; returns the
        per-window :class:`~repro.dram.refresh.RefreshStats`."""
        results = []
        for _ in range(n_windows):
            self.step()
            delta = self.system.engine.run_window(self.system.time_s)
            self.system.time_s += self.system.config.timing.tret_s
            results.append(delta)
        return results
