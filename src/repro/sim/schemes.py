"""Adapters that let the baselines speak :class:`RefreshScheme`.

ZERO-REFRESH's :class:`~repro.dram.refresh.RefreshEngine` (and the
hybrid engine built on it) satisfy the protocol natively — their
``run_window(start_time_s)`` *is* the scheme interface.
The baselines model a window as a counter update rather than a timed
command walk, so each gets a thin adapter here that feeds it
per-window inputs and returns a
:class:`~repro.dram.refresh.RefreshStats` delta the kernel can
accumulate uniformly.  Adapters never own randomness: anything drawn
per window comes through caller-supplied callbacks, preserving the RNG
order of the loops they replaced.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.dram.refresh import RefreshStats
from repro.obs import get_probes

AccessFeed = Callable[[], Tuple[np.ndarray, np.ndarray]]
"""Per-window access feed: returns ``(banks, rows)`` activated this
window.  Called exactly once per measured window."""


class SmartRefreshScheme:
    """Smart Refresh tracker as a kernel-drivable scheme.

    Each window: deliver the window's row activations to the tracker
    (recency reload), then run its skip-or-refresh pass.
    """

    def __init__(self, tracker, window_accesses: Optional[AccessFeed] = None,
                 probes=None):
        self.tracker = tracker
        self.window_accesses = window_accesses
        self.probes = probes if probes is not None else get_probes()

    def run_window(self, start_time_s: float = 0.0) -> RefreshStats:
        if self.window_accesses is not None:
            banks, rows = self.window_accesses()
            self.tracker.note_accesses(banks, rows)
        delta = self.tracker.run_window()
        self.probes.count("smart_refresh.groups_skipped", delta.groups_skipped)
        if self.probes.tracing:
            self.probes.event("smart_refresh.window", t=start_time_s,
                              refreshed=delta.groups_refreshed,
                              skipped=delta.groups_skipped)
        return delta


class RaidrScheme:
    """RAIDR's retention-binned scheduler as a kernel-drivable scheme.

    The scheduler keeps its native :class:`~repro.baselines.raidr.RaidrStats`
    (including VRT risk accounting, which has no :class:`RefreshStats`
    analogue); the adapter returns the per-window delta translated into
    refresh-group counters so cross-scheme reductions compare directly.
    """

    def __init__(self, scheduler, vrt=None, probes=None):
        self.scheduler = scheduler
        self.vrt = vrt
        self.probes = probes if probes is not None else get_probes()

    def run_window(self, start_time_s: float = 0.0) -> RefreshStats:
        native = self.scheduler.run_window(self.vrt)
        skipped = native.refreshes_baseline - native.refreshes_performed
        self.probes.count("raidr.unsafe_row_windows", native.unsafe_row_windows)
        if self.probes.tracing:
            self.probes.event("raidr.window", t=start_time_s,
                              refreshed=native.refreshes_performed,
                              skipped=skipped,
                              unsafe_rows=native.unsafe_row_windows)
        return RefreshStats(
            groups_refreshed=native.refreshes_performed,
            groups_skipped=skipped,
            windows=1,
        )


ContentFeed = Callable[[], np.ndarray]
"""Per-window resident-content feed: ``(pages, lines_per_page, words)``
raw (untransformed) memory content the indicator bits describe."""


class ZeroIndicatorRefreshScheme:
    """Patel et al.'s zero-indicator bits as a kernel-drivable scheme.

    The underlying model is analytic (a row is skippable iff its raw
    content is all zero); the adapter evaluates it against the window's
    resident content, so content churn between windows shows up as a
    changing skip rate on the shared timeline.
    """

    def __init__(self, scheme, content: ContentFeed, lines_per_row: int = 64,
                 probes=None):
        self.scheme = scheme
        self.content = content
        self.lines_per_row = lines_per_row
        self.probes = probes if probes is not None else get_probes()

    def run_window(self, start_time_s: float = 0.0) -> RefreshStats:
        page_lines = self.content()
        skippable, total = self.scheme.row_skip_counts(
            page_lines, self.lines_per_row
        )
        if self.probes.tracing:
            self.probes.event("zero_indicator.window", t=start_time_s,
                              refreshed=total - skippable, skipped=skippable)
        return RefreshStats(
            groups_refreshed=total - skippable,
            groups_skipped=skippable,
            windows=1,
        )
