"""Hybrid refresh: charge-aware + access-recency skipping (extension).

Fig. 19 shows ZERO-REFRESH and Smart Refresh exploiting *disjoint*
opportunities: value statistics of resident data versus recency of
activations.  They compose naturally — a refresh group may be skipped
when

* every covered chip row is discharged (ZERO-REFRESH's condition), or
* every covered row was activated within the current retention window
  (Smart Refresh's condition: activation recharged it).

:class:`HybridRefreshEngine` extends the ZERO-REFRESH engine with a
per-row recency table fed by the device's access observer.

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
    def note_access(self, bank: int, row: int) -> None:
        """An activation recharged this row; it may skip the next slot."""
        self._recency[bank, row] = 1

    @property
    def recency_costs(self) -> TrackingCosts:
        """Extra SRAM for the recency counters (2 bits/row, like Smart
        Refresh's table)."""
        return TrackingCosts(sram_bits=self._recency.size * 2)

    # ------------------------------------------------------------------
    def _recency_group_status(self, bank: int, ar_set: int) -> np.ndarray:
        """Groups whose every covered row was activated this window."""
        steps = self.group_steps(ar_set)
        rows_matrix = self.counters.rows_for_steps(steps)
        return (self._recency[bank][rows_matrix] > 0).all(axis=0)

    def _process_zero_refresh(self, bank: int, ar_set: int,
                              time_s: float) -> int:
        recent = self._recency_group_status(bank, ar_set)
        set_rows = self.geometry.rows_of_ar_set(ar_set)
        dirty = self.access_bits.test_and_clear(bank, ar_set)
        dirty = dirty or bool(self.device.banks[bank].dirty[set_rows].any())
        if dirty:
            # Refresh the non-recent groups; rows skipped for recency
            # cannot have their discharged status re-derived (they were
            # not opened by the refresh), so mark them conservatively.
            self.stats.dirty_ars += 1
            self.probes.count("refresh.dirty_ars")
            refreshed = self._refresh_groups(bank, ar_set, ~recent, time_s)
            derived = self.derive_group_status(bank, ar_set)
            derived[recent] = False  # conservative: unknown -> charged
            self.status_table.write_vector(bank, ar_set, derived)
            self.stats.status_writes += 1
            self.probes.count("refresh.status_writes")
            if self.probes.tracing:
                self.probes.event("refresh.status_renewal", bank=bank,
                                  ar_set=ar_set, t=time_s,
                                  discharged=int(derived.sum()))
            self.device.banks[bank].dirty[set_rows] = False
            skipped = int(recent.sum())
            self.stats.groups_skipped += skipped
            self.probes.count("refresh.groups_skipped", skipped)
            self.recency_skips += skipped
            self.probes.count("refresh.recency_skips", skipped)
        else:
            self.stats.clean_ars += 1
            self.probes.count("refresh.clean_ars")
            status = self.status_table.read_vector(bank, ar_set)
            self.stats.status_reads += 1
            self.probes.count("refresh.status_reads")
            skip = status | recent
            refreshed = self._refresh_groups(bank, ar_set, ~skip, time_s)
            skipped = int(skip.sum())
            self.stats.groups_skipped += skipped
            self.probes.count("refresh.groups_skipped", skipped)
            recency_only = int((recent & ~status).sum())
            self.recency_skips += recency_only
            self.probes.count("refresh.recency_skips", recency_only)
            if self.watchdog.enabled:
                # recency skips are covered by the retention guard band,
                # not the status table; only status-marked skips must
                # match the detector truth
                self._watchdog_clean_skip(bank, ar_set, status, ~skip,
                                          time_s)
        return refreshed

    # ------------------------------------------------------------------
    def run_window(self, start_time_s: float = 0.0, write_hook=None):
        delta = super().run_window(start_time_s, write_hook)
        # Recency decays once per window: only activations since the
        # last refresh pass count for the next one.
        np.maximum(self._recency - 1, 0, out=self._recency)
        return delta
