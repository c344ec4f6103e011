"""Program memory-trace format and trace-driven simulation driver.

The paper's evaluation is execution-driven (PIN + McSimA+); the
equivalent in this reproduction is *trace-driven*: a program trace —
the sequence of demand accesses per core — is replayed through the
cache hierarchy, and the LLC miss/writeback stream it produces drives
the memory controller and the refresh simulation.

* :class:`ProgramTrace` — (core, line address, is_write) records with
  npz save/load, so traces can be captured once and replayed across
  configurations.
* :class:`TraceDrivenDriver` — replays a trace window by window through
  a :class:`~repro.cache.caches.CacheHierarchy` into a
  :class:`~repro.core.zero_refresh.ZeroRefreshSystem`, writing back
  in-class values for dirty lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ProgramTrace:
    """A multi-core demand-access trace at cacheline granularity."""

    core: np.ndarray  # int8 core id per access
    line_addr: np.ndarray  # int64 global line address
    is_write: np.ndarray  # bool

    def __post_init__(self):
        if not (len(self.core) == len(self.line_addr) == len(self.is_write)):
            raise ValueError("trace arrays must have equal length")

    def __len__(self) -> int:
        return len(self.line_addr)

    @property
    def num_cores(self) -> int:
        return int(self.core.max()) + 1 if len(self.core) else 0

    def slice(self, start: int, stop: int) -> "ProgramTrace":
        return ProgramTrace(
            core=self.core[start:stop],
            line_addr=self.line_addr[start:stop],
            is_write=self.is_write[start:stop],
        )

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist as compressed npz."""
        np.savez_compressed(
            Path(path),
            core=self.core.astype(np.int8),
            line_addr=self.line_addr.astype(np.int64),
            is_write=self.is_write.astype(bool),
        )

    @classmethod
    def load(cls, path) -> "ProgramTrace":
        data = np.load(Path(path))
        return cls(
            core=data["core"],
            line_addr=data["line_addr"],
            is_write=data["is_write"],
        )

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        working_set_pages: np.ndarray,
        n_accesses: int,
        num_cores: int = 4,
        lines_per_page: int = 64,
        write_fraction: float = 0.25,
        zipf_s: float = 0.8,
        rng: Optional[np.random.Generator] = None,
    ) -> "ProgramTrace":
        """Synthesize a trace over a working set (one shared footprint;
        the paper runs the identical benchmark on each core)."""
        rng = rng or np.random.default_rng()
        ranks = np.arange(1, len(working_set_pages) + 1, dtype=float)
        probs = ranks**-zipf_s
        probs /= probs.sum()
        page_idx = rng.choice(len(working_set_pages), size=n_accesses, p=probs)
        lines = (
            np.asarray(working_set_pages)[page_idx] * lines_per_page
            + rng.integers(0, lines_per_page, size=n_accesses)
        )
        return cls(
            core=rng.integers(0, num_cores, size=n_accesses).astype(np.int8),
            line_addr=lines.astype(np.int64),
            is_write=rng.random(n_accesses) < write_fraction,
        )


class TraceDrivenDriver:
    """Replays a program trace through caches into the simulated system.

    The driver owns a cache hierarchy; each call to
    :meth:`run_window` replays one slice of the trace, converts the LLC
    miss/writeback stream into controller reads/writes (writebacks carry
    fresh in-class values via the system's page-class map), then runs
    one retention window of refresh.
    """

    def __init__(self, system, hierarchy=None):
        from repro.cache.caches import CacheHierarchy

        self.system = system
        self.hierarchy = hierarchy or CacheHierarchy(
            num_cores=system.config.num_cores,
            line_bytes=system.config.geometry.line_bytes,
        )
        self.dram_reads = 0
        self.dram_writes = 0

    def replay(self, trace: ProgramTrace) -> None:
        """Push trace accesses through the caches into DRAM.

        The caches walk the slice in one batch; its fills are then read,
        and decoded, in one batch, and its writebacks written in one.
        That is the same as one access at a time: every access happens
        at the system's current time, reads change no stored data, and
        the writes wait for the walk either way.
        """
        fills, writebacks = self.hierarchy.replay(
            trace.core, trace.line_addr, trace.is_write)
        if len(fills):
            self.system.controller.read_lines(fills, self.system.time_s)
            self.dram_reads += len(fills)
        if len(writebacks):
            self.system._apply_writes(writebacks, self.system.time_s)
            self.dram_writes += len(writebacks)

    def run_window(self, trace_slice: ProgramTrace):
        """Replay one window's trace then run its refresh schedule."""
        self.replay(trace_slice)
        return self.system.engine.run_window(self.system.time_s)

    def run(self, trace: ProgramTrace, n_windows: int):
        """Split a trace evenly over windows (the last takes the
        remainder) and run them all."""
        from repro.dram.refresh import RefreshStats

        if n_windows < 1:
            raise ValueError("n_windows must be at least 1")
        per_window = max(1, len(trace) // n_windows)
        total = RefreshStats()
        for i in range(n_windows):
            stop = len(trace) if i == n_windows - 1 else (i + 1) * per_window
            window_slice = trace.slice(i * per_window, stop)
            total = total.merged_with(self.run_window(window_slice))
            self.system.time_s += self.system.config.timing.tret_s
        return total
