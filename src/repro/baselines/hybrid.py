"""Hybrid refresh: charge-aware + access-recency skipping (extension).

Fig. 19 shows ZERO-REFRESH and Smart Refresh exploiting *disjoint*
opportunities: value statistics of resident data versus recency of
activations.  They compose naturally — a refresh group may be skipped
when

* every covered chip row is discharged (ZERO-REFRESH's condition), or
* every covered row was activated within the current retention window
  (Smart Refresh's condition: activation recharged it).

:class:`HybridRefreshEngine` extends the ZERO-REFRESH engine with a
per-row recency table fed by the device's access observer; the
engine's array pass reads it (``_recent_groups``) to skip recent groups
on both the dirty and the clean path.

**Safety precondition.**  Skipping a refresh because of an activation
*earlier in the window* stretches that row's recharge gap beyond one
window (the activation happened before the skipped slot; the next
refresh comes a full window after it).  This is sound exactly when the
cell retention time exceeds the refresh window — the guard-band every
access-recency scheme (Smart Refresh included) banks on.  The canonical
deployment: run the 32 ms extended-temperature *schedule* on a device
whose actual retention is 64 ms; then any recharge within the current
window leaves at most ~2 windows <= tRET of gap.  The integrity tests
verify this with a :class:`~repro.dram.retention.RetentionTracker` at
``2 x`` the window, and verify the violation when the margin is absent.

This is not in the paper (its Sec. VI-C treats Smart Refresh purely as
a competitor); it is the obvious follow-up the comparison invites, and
the ``ext-hybrid`` experiment quantifies it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dram.device import DramDevice
from repro.dram.refresh import RefreshEngine
from repro.dram.timing import TimingParams
from repro.dram.tracking import TrackingCosts


class HybridRefreshEngine(RefreshEngine):
    """ZERO-REFRESH engine augmented with Smart-Refresh recency skips."""

    wants_access_events = True
    """Recency skipping needs demand *reads* replayed as activations —
    the capability drivers consult instead of probing for methods."""

    def __init__(self, device: DramDevice,
                 timing: Optional[TimingParams] = None,
                 staggered: bool = True, policy: str = "per-bank",
                 probes=None):
        super().__init__(device, timing=timing, mode="zero-refresh",
                         staggered=staggered, policy=policy, probes=probes)
        self._recency = np.zeros(
            (self.geometry.num_banks, self.geometry.rows_per_bank),
            dtype=np.int8,
        )
        device.add_access_observer(self.note_access)
        self.recency_skips = 0

    # ------------------------------------------------------------------
    def note_access(self, bank, row) -> None:
        """An activation recharged this row (or these rows); it may skip
        the next slot."""
        self._recency[bank, row] = 1

    @property
    def recency_costs(self) -> TrackingCosts:
        """Extra SRAM for the recency counters (2 bits/row, like Smart
        Refresh's table)."""
        return TrackingCosts(sram_bits=self._recency.size * 2)

    # ------------------------------------------------------------------
    def _recent_groups(self, banks: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Groups whose every covered row was activated this window."""
        return (self._recency[banks[:, None, None], rows] > 0).all(axis=1)

    def _end_window(self) -> None:
        # Recency decays once per window: only activations since the
        # last refresh pass count for the next one.
        np.maximum(self._recency - 1, 0, out=self._recency)
