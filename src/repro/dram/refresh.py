"""Per-bank auto-refresh engine with charge-aware skipping (paper Sec. IV).

The engine walks the refresh schedule of one rank: every bank receives
``ar_sets_per_bank`` auto-refresh commands per retention window, each
covering ``rows_per_ar`` *refresh groups*.

**Staggered refresh counters (Sec. IV-C, Fig. 8).**  Each chip's
internal refresh counter is initialised to its chip number, so at
refresh step ``n`` chip ``j`` refreshes bank-local row::

    block_base(n) + (j + n) mod num_chips,
    block_base(n) = (n // num_chips) * num_chips

A refresh *group* — the chip rows recharged by one step — is therefore
a diagonal across the chips.  Combined with the per-row rotation of the
data-rotation stage (word ``w`` of row ``R`` lives on chip
``(R + w) mod num_chips``), every group covers a single *word position*
of all cachelines it touches: groups are word-homogeneous, so groups of
discharged words are skippable as a unit.

**Skip protocol (Sec. IV-B).**  One status bit per group lives in the
DRAM-resident :class:`~repro.dram.tracking.DischargedStatusTable`; a
per-AR-set bit in the SRAM :class:`~repro.dram.tracking.AccessBitTable`
records intervening writes.

* access bit set -> refresh every group, re-derive the status of all
  covered rows with the wire-OR detector (free during refresh), write
  the vector back to DRAM once (one DRAM write), clear the bit;
* access bit clear -> read the vector (one DRAM read), skip groups
  whose bit says discharged, refresh the rest.

``mode='conventional'`` turns the engine into the DDRx baseline (no
skipping); ``mode='naive'`` consults a
:class:`~repro.dram.tracking.NaiveSramTracker` instead of the
access-bit protocol (the tracking ablation): it counts one update per
write and skips by its per-row vector.

:meth:`RefreshEngine.run_window` makes all of a window's decisions in
one array pass; DESIGN.md ("Window pass") explains why that leaves the
state a slot-by-slot walk would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.device import DramDevice, LineWrites
from repro.dram.geometry import DramGeometry
from repro.dram.timing import TimingParams
from repro.dram.tracking import (
    AccessBitTable,
    DischargedStatusTable,
    NaiveSramTracker,
)
from repro.obs.probes import NULL_PROBES

MODES = ("zero-refresh", "conventional", "naive")
POLICIES = ("per-bank", "all-bank")

DETECT_ROWS = 256
"""Rows the detector reads per call: bounds the pass's working memory
when every set is dirty (the first window over populated memory)."""


class RefreshCounters:
    """Per-chip staggered refresh counters (Fig. 8).

    ``staggered=False`` models conventional counters where every chip
    refreshes the same row index at each step.
    """

    def __init__(self, num_chips: int, staggered: bool = True):
        self.num_chips = num_chips
        self.staggered = staggered

    def rows_for_step(self, step: int) -> np.ndarray:
        """Bank-local row refreshed by each chip at ``step``; shape (chips,)."""
        chips = np.arange(self.num_chips)
        if not self.staggered:
            return np.full(self.num_chips, step)
        block_base = (step // self.num_chips) * self.num_chips
        return block_base + (chips + step) % self.num_chips

    def rows_for_steps(self, steps: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rows_for_step`; shape (chips, len(steps))."""
        steps = np.asarray(steps)
        if not self.staggered:
            return np.broadcast_to(steps, (self.num_chips, len(steps))).copy()
        chips = np.arange(self.num_chips)[:, None]
        block_base = (steps // self.num_chips) * self.num_chips
        return block_base + (chips + steps) % self.num_chips

    def step_of_row(self, chip: int, row: int) -> int:
        """Refresh step at which ``chip`` recharges ``row`` (inverse map)."""
        if not self.staggered:
            return row
        block_base = (row // self.num_chips) * self.num_chips
        offset = (row - chip) % self.num_chips
        return block_base + offset


@dataclass
class RefreshStats:
    """Counters accumulated by the refresh engine.

    A *group refresh* recharges ``num_chips`` chip rows — the refresh
    work of one logical row, the unit in which the paper reports
    "refresh operations".
    """

    ar_commands: int = 0
    groups_refreshed: int = 0
    groups_skipped: int = 0
    dirty_ars: int = 0
    clean_ars: int = 0
    status_reads: int = 0
    status_writes: int = 0
    windows: int = 0
    rank_busy_groups: int = 0
    """Rank-level busy work in group units.

    Per-bank AR blocks only the target bank, so this equals
    ``groups_refreshed``.  All-bank AR blocks the whole rank until the
    *slowest* bank finishes, so each command contributes
    ``num_banks * max_over_banks(refreshed)`` — the quantity the
    bank-availability model converts into stall time (Sec. IV-A)."""

    @property
    def groups_total(self) -> int:
        return self.groups_refreshed + self.groups_skipped

    def normalized_refresh(self) -> float:
        """Refresh operations relative to the conventional baseline."""
        if self.groups_total == 0:
            return 1.0
        return self.groups_refreshed / self.groups_total

    def reduction(self) -> float:
        """Fraction of refresh operations eliminated."""
        return 1.0 - self.normalized_refresh()

    def normalized_busy(self) -> float:
        """Rank busy time relative to the conventional baseline."""
        if self.groups_total == 0:
            return 1.0
        return self.rank_busy_groups / self.groups_total

    def merged_with(self, other: "RefreshStats") -> "RefreshStats":
        return RefreshStats(
            ar_commands=self.ar_commands + other.ar_commands,
            groups_refreshed=self.groups_refreshed + other.groups_refreshed,
            groups_skipped=self.groups_skipped + other.groups_skipped,
            dirty_ars=self.dirty_ars + other.dirty_ars,
            clean_ars=self.clean_ars + other.clean_ars,
            status_reads=self.status_reads + other.status_reads,
            status_writes=self.status_writes + other.status_writes,
            windows=self.windows + other.windows,
            rank_busy_groups=self.rank_busy_groups + other.rank_busy_groups,
        )

    @classmethod
    def aggregate_concurrent(
        cls, parts: "Sequence[RefreshStats]", windows: int
    ) -> "RefreshStats":
        """Merge stats of refresh domains that ran *simultaneously*.

        Independent domains (DIMM ranks, channels) each simulate the
        same retention windows in parallel, so their counters add but
        their windows overlap: the aggregate covers ``windows`` windows
        of wall time, not the concatenated sum ``merged_with`` would
        report.  Returns a fresh instance; no input is mutated.
        """
        merged = cls()
        for part in parts:
            merged = merged.merged_with(part)
        merged.windows = windows
        return merged


class RefreshEngine:
    """Issues per-bank AR commands and applies charge-aware skipping.

    The engine natively satisfies the :class:`repro.sim.scheme.RefreshScheme`
    protocol: ``run_window`` is the scheme interface.  A window's memory
    traffic is posted to the engine beforehand (:meth:`post_writes`,
    :meth:`post_reads`); writes made straight to the device reach it
    through the device's write observers.  Subclasses that skip on
    access recency set :attr:`wants_access_events` so drivers post
    demand reads too.
    """

    wants_access_events = False
    """Whether drivers must post demand reads as row activations."""

    def __init__(
        self,
        device: DramDevice,
        timing: Optional[TimingParams] = None,
        mode: str = "zero-refresh",
        staggered: bool = True,
        policy: str = "per-bank",
        probes=None,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        self.policy = policy
        self.probes = probes if probes is not None else NULL_PROBES
        self.device = device
        self.geometry: DramGeometry = device.geometry
        self.timing = timing or TimingParams()
        self.mode = mode
        self.counters = RefreshCounters(self.geometry.num_chips, staggered)
        # _diagonal[c, k]: offset within its AR set of the row chip c
        # recharges for group k (the same for every set, because
        # rows_per_ar is a multiple of num_chips)
        self._diagonal = self.counters.rows_for_steps(
            np.arange(self.geometry.rows_per_ar))
        self.stats = RefreshStats()
        self._posted_writes: List[Tuple[LineWrites, np.ndarray]] = []
        self._posted_reads: List[Tuple[np.ndarray, ...]] = []
        if mode == "zero-refresh":
            self.access_bits = AccessBitTable(self.geometry)
            self.status_table = DischargedStatusTable(self.geometry)
            device.add_write_observer(self.access_bits.note_writes)
            self.naive_tracker = None
        elif mode == "naive":
            self.access_bits = None
            self.status_table = None
            self.naive_tracker = NaiveSramTracker(self.geometry)
            device.add_write_observer(self._naive_on_write)
        else:
            self.access_bits = None
            self.status_table = None
            self.naive_tracker = None

    # ------------------------------------------------------------------
    def _naive_on_write(self, bank, row) -> None:
        """Naive tracker: one SRAM update per written row.

        The design re-checks the status of a row on every write (a
        hidden read cost that is part of why the paper rejects it; the
        counter feeds the ablation).  The model needs no re-derivation
        here: the write flags its row dirty, so the set's next AR
        re-derives the vector before anything reads it.
        """
        self.naive_tracker.updates += np.size(row)

    # ------------------------------------------------------------------
    def derive_group_status(self, bank: int, ar_set: int) -> np.ndarray:
        """Wire-OR-derived discharged bit per group of the AR set."""
        return self._derive(np.array([bank]), np.array([ar_set]))[0]

    def _set_rows(self, ar_sets) -> np.ndarray:
        """``rows[i, c, k]``: the row chip ``c`` recharges for group
        ``k`` of AR set ``ar_sets[i]``."""
        return (np.asarray(ar_sets)[:, None, None] * self.geometry.rows_per_ar
                + self._diagonal)

    def _derive(self, banks: np.ndarray, ar_sets: np.ndarray) -> np.ndarray:
        """Wire-OR-derived discharged bit per group, ``(n, rows_per_ar)``.

        Group ``k`` is discharged iff every chip's covered row slice is
        discharged.  Groups are diagonals, so this reads the per-chip
        detector output of each set's rows along the staggered row
        matrix.  The detector runs only over the given sets' rows, at
        most ``DETECT_ROWS`` of them a call, whatever their banks.
        """
        per_ar = self.geometry.rows_per_ar
        out = np.empty((len(banks), per_ar), dtype=bool)
        chip = np.arange(self.geometry.num_chips)[:, None]
        step = max(1, DETECT_ROWS // per_ar)
        for start in range(0, len(banks), step):
            part = slice(start, start + step)
            per_chip = self.device.detect_discharged_per_chip(
                banks[part, None], ar_sets[part, None] * per_ar + np.arange(per_ar))
            out[part] = per_chip[:, self._diagonal, chip].all(axis=1)
        return out

    def _take_dirty_rows(self, banks: np.ndarray, ar_sets: np.ndarray) -> np.ndarray:
        """Whether each set holds rows whose content changed since its
        status was last derived; clears those flags."""
        geometry = self.geometry
        flags = self.device.dirty.reshape(
            geometry.num_banks, geometry.ar_sets_per_bank, geometry.rows_per_ar)
        out = flags[banks, ar_sets].any(axis=1)
        flags[banks, ar_sets] = False
        return out

    def _recent_groups(self, banks: np.ndarray,
                       rows: np.ndarray) -> Optional[np.ndarray]:
        """Groups skippable for access recency; ``None`` without a
        recency table (see the hybrid engine)."""
        return None

    # ------------------------------------------------------------------
    def process_ar(self, bank: int, ar_set: int, time_s: float,
                   track_busy: bool = True) -> int:
        """Handle one AR command for one bank; returns groups refreshed.

        The one-command entry into the array pass :meth:`run_window`
        makes.  With ``track_busy`` the command's work counts as rank
        busy time (per-bank refresh blocks only its bank).
        """
        refreshed = int(self._run_ars(np.array([bank]), np.array([ar_set]),
                                      np.array([float(time_s)]))[0])
        if track_busy:
            self.stats.rank_busy_groups += refreshed
        return refreshed

    def _run_ars(self, banks: np.ndarray, ar_sets: np.ndarray,
                 times: np.ndarray) -> np.ndarray:
        """Decide and refresh AR commands in one array pass.

        Command ``i`` refreshes set ``ar_sets[i]`` of bank ``banks[i]``
        at ``times[i]``; commands come in schedule order and no (bank,
        set) appears twice.  Returns the groups each one refreshed.

        * conventional: refresh every group;
        * naive: a set holding dirty rows re-derives its tracker
          vector; every set refreshes the groups its vector does not
          mark discharged;
        * zero-refresh: a set is dirty when a write raised its access
          bit or it holds dirty rows.  A dirty set refreshes every group
          (but the recent ones), re-derives its status and writes the
          vector back; a clean set reads the stored vector and skips
          the groups it marks (and the recent ones).
        """
        geometry = self.geometry
        n, per_ar = len(banks), geometry.rows_per_ar
        rows = self._set_rows(ar_sets)
        recent = self._recent_groups(banks, rows)
        skip = (np.zeros((n, per_ar), dtype=bool) if recent is None
                else recent.copy())
        dirty = clean = derived = stored = None
        if self.mode == "naive":
            dirty = self._take_dirty_rows(banks, ar_sets)
            self.naive_tracker.set_vector(
                banks[dirty], ar_sets[dirty], self._derive(banks[dirty], ar_sets[dirty]))
            skip = self.naive_tracker.vector(banks, ar_sets)
        elif self.mode == "zero-refresh":
            dirty = self.access_bits.test_and_clear(banks, ar_sets)
            dirty |= self._take_dirty_rows(banks, ar_sets)
            clean = ~dirty
            derived = self._derive(banks[dirty], ar_sets[dirty])
            if recent is not None:
                derived &= ~recent[dirty]  # not opened by the refresh: unknown
            self.status_table.write_vector(banks[dirty], ar_sets[dirty], derived)
            stored = self.status_table.read_vector(banks[clean], ar_sets[clean])
            skip[clean] |= stored
        refresh = ~skip
        lifetimes = self._refresh(banks, rows, refresh, times)
        refreshed = refresh.sum(axis=1)
        self._account(refreshed, skip, dirty, recent, stored)
        if self.probes.enabled and refreshed.any():
            # per-group charge lifetime: time since the longest-idle chip
            # slice of each refreshed group was last recharged; one sum
            # per command, as the histogram got them command by command
            values = lifetimes[refresh]
            ends = np.cumsum(refreshed).tolist()
            sums = [float(values[a:b].sum())
                    for a, b in zip([0] + ends[:-1], ends) if b > a]
            self.probes.observe_many("refresh.row_charge_lifetime_s", values,
                                     sums=sums)
        checks = ()
        if self.probes.checking and clean is not None and clean.any():
            checks = self._clean_skip_evidence(banks[clean], ar_sets[clean],
                                               refresh[clean], stored)
        if self.probes.tracing or checks:
            self._record(banks, ar_sets, times, refreshed,
                         dirty if clean is not None else None, derived, checks)
        return refreshed

    def _refresh(self, banks: np.ndarray, rows: np.ndarray,
                 refresh: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Recharge the selected groups; returns each group's charge
        lifetime (command time minus the oldest chip slice's last
        recharge, read before the refresh), ``(n, rows_per_ar)``.  No
        (bank, row, chip) slice appears twice, so one flat index reads
        and writes them all."""
        geometry = self.geometry
        chips = np.arange(geometry.num_chips)[:, None]
        flat = ((banks[:, None, None] * geometry.rows_per_bank + rows)
                * geometry.num_chips + chips)
        stamps = self.device.last_refresh.reshape(-1)
        last = stamps[flat]
        stamps[flat] = np.where(refresh[:, None, :], times[:, None, None], last)
        return times[:, None] - last.min(axis=1)

    def _account(self, refreshed, skip, dirty, recent, stored) -> None:
        """Fold a pass into :attr:`stats` and the probe counters; each
        counter appears exactly when some command counts it."""
        stats, probes = self.stats, self.probes
        n = len(refreshed)
        total = int(refreshed.sum())
        skipped = int(skip.sum())
        stats.ar_commands += n
        stats.groups_refreshed += total
        stats.groups_skipped += skipped
        probes.count("refresh.groups_refreshed", total)
        counts_skips = self.mode == "naive"
        if self.mode == "zero-refresh":
            n_dirty = int(dirty.sum())
            n_clean = n - n_dirty
            counts_skips = recent is not None or n_clean > 0
            if n_dirty:
                stats.dirty_ars += n_dirty
                stats.status_writes += n_dirty
                probes.count("refresh.dirty_ars", n_dirty)
                probes.count("refresh.status_writes", n_dirty)
            if n_clean:
                stats.clean_ars += n_clean
                stats.status_reads += n_clean
                probes.count("refresh.clean_ars", n_clean)
                probes.count("refresh.status_reads", n_clean)
            if recent is not None:
                recency_only = recent.copy()
                recency_only[~dirty] &= ~stored
                recency_skips = int(recency_only.sum())
                self.recency_skips += recency_skips
                probes.count("refresh.recency_skips", recency_skips)
        if counts_skips:
            probes.count("refresh.groups_skipped", skipped)
        probes.count("refresh.ar_commands", n)

    def _clean_skip_evidence(self, banks, ar_sets, refresh, stored) -> list:
        """Per clean command, against the detector truth: does it refresh
        no discharged group, skip no charged one, how many groups does
        its vector mark and how many of those hold charge.

        A refresh leaves the truth unchanged (it recharges cells, never
        changes stored data).  Recency skips are covered by the
        retention guard band, not the status table, so only
        status-marked skips must match the truth.
        """
        truth = self._derive(banks, ar_sets)
        wrong = stored & ~truth
        return list(zip((~(refresh & truth).any(axis=1)).tolist(),
                        (~wrong.any(axis=1)).tolist(),
                        stored.sum(axis=1).tolist(),
                        wrong.sum(axis=1).tolist()))

    def _record(self, banks, ar_sets, times, refreshed, dirty, derived,
                checks) -> None:
        """Trace events and invariant checks, command by command in
        schedule order.

        ``dirty`` marks the commands that renewed their status vector
        (``derived``), ``None`` outside zero-refresh mode; ``checks``
        holds :meth:`_clean_skip_evidence` for the clean ones, or
        nothing on a bus that is not checking.
        """
        tracing = self.probes.tracing
        flags = dirty.tolist() if dirty is not None else [None] * len(banks)
        renewed = iter(derived.sum(axis=1).tolist() if dirty is not None else ())
        checks = iter(checks)
        for bank, ar_set, t, count, was_dirty in zip(
                banks.tolist(), ar_sets.tolist(), times.tolist(),
                refreshed.tolist(), flags):
            if was_dirty:
                discharged = next(renewed)
                if tracing:
                    self.probes.event("refresh.status_renewal", bank=bank,
                                      ar_set=ar_set, t=t,
                                      discharged=discharged)
            elif was_dirty is not None:
                evidence = next(checks, None)
                if evidence is not None:
                    no_discharged, safe, marked, charged = evidence
                    self.probes.check("refresh.no_discharged_refresh",
                                      no_discharged, bank=bank,
                                      ar_set=ar_set, t=round(t, 6))
                    self.probes.check("refresh.skip_safety", safe,
                                      bank=bank, ar_set=ar_set,
                                      t=round(t, 6),
                                      marked_discharged=marked,
                                      actually_charged=charged)
            if tracing:
                self.probes.event("refresh.ar", bank=bank, ar_set=ar_set,
                                  t=t, refreshed=count, mode=self.mode)

    # ------------------------------------------------------------------
    # the window
    # ------------------------------------------------------------------
    def slot_times(self, start_time_s: float = 0.0) -> np.ndarray:
        """AR slot time of every (set, bank) in the window, ``(sets, banks)``.

        Commands are evenly spaced: each bank gets one AR per
        ``tRET / ar_sets_per_bank``, with banks offset from each other
        by a further ``1 / num_banks`` of that (per-bank refresh).  An
        all-bank command refreshes one set of every bank at once.
        """
        geometry = self.geometry
        cadence = self.timing.tret_s / geometry.ar_sets_per_bank
        set_times = start_time_s + np.arange(geometry.ar_sets_per_bank) * cadence
        if self.policy == "all-bank":
            return np.repeat(set_times[:, None], geometry.num_banks, axis=1)
        offset = cadence / geometry.num_banks
        return set_times[:, None] + np.arange(geometry.num_banks) * offset

    def place(self, start_time_s: float,
              times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Where accesses at ``times`` land in the window from ``start_time_s``.

        An access lands just before the window's first command later
        than it and recharges its row at the command before (the start
        of its span between commands).  Returns ``(span, stamp)``:
        ``span`` is the index of that command among the window's
        commands in time order (their number for the span after the
        last one), or -1 for an access at or past the window's end,
        which never lands; ``stamp`` is the recharge time.
        """
        slots = self.slot_times(start_time_s)
        commands = slots[:, 0] if self.policy == "all-bank" else slots.ravel()
        times = np.asarray(times, dtype=float)
        span = np.searchsorted(commands, times, side="right")
        stamp = commands[np.maximum(span - 1, 0)]
        span[times >= start_time_s + self.timing.tret_s] = -1
        return span, stamp

    def post_writes(self, writes: LineWrites, times: np.ndarray) -> None:
        """Hand the next window its writes, issued at ``times`` in order.

        :meth:`run_window` applies each write in the span :meth:`place`
        gives it: before its own set's AR when it lands before that
        command, after it otherwise.
        """
        self._posted_writes.append((writes, np.asarray(times, dtype=float)))

    def post_reads(self, banks: np.ndarray, rows: np.ndarray,
                   times: np.ndarray) -> None:
        """Hand the next window demand reads: row activations, no content."""
        self._posted_reads.append((np.asarray(banks), np.asarray(rows),
                                   np.asarray(times, dtype=float)))

    def run_window(self, start_time_s: float = 0.0,
                   write_hook=None) -> RefreshStats:
        """Run one full retention window of AR commands for all banks.

        One array pass: the posted writes and reads that land before
        their own set's AR are applied, every (bank, set) command of the
        window is decided and refreshed at once (:meth:`_run_ars`), then
        the rest of the posted traffic is applied.  Because a refresh
        touches only its own set's rows, this leaves the state a walk
        through the slots one by one would.

        ``write_hook`` must be ``None``: traffic is posted beforehand
        (:meth:`post_writes`, :meth:`post_reads`).  The parameter stays
        because ``perfbench/tracing.py`` wraps this method and passes
        it positionally.

        Returns the stats delta for this window.
        """
        if write_hook is not None:
            raise TypeError("run_window takes no write hook: post the "
                            "window's traffic with post_writes/post_reads")
        before = replace(self.stats)
        geometry = self.geometry
        slots = self.slot_times(start_time_s)
        writes, self._posted_writes = self._posted_writes, []
        reads, self._posted_reads = self._posted_reads, []
        writes = [(batch, *self._sides(start_time_s, batch.banks, batch.rows, t))
                  for batch, t in writes]
        reads = [(banks, rows, *self._sides(start_time_s, banks, rows, t))
                 for banks, rows, t in reads]
        self._land(writes, reads, 0)  # before their own set's AR
        sets, banks = np.divmod(np.arange(slots.size), geometry.num_banks)
        refreshed = self._run_ars(banks, sets, slots.ravel())
        if self.policy == "all-bank":
            # one rank-level command per set: the rank stays blocked
            # until the bank with the most surviving refreshes finishes
            # (Sec. IV-A)
            worst = refreshed.reshape(slots.shape).max(axis=1)
            self.stats.rank_busy_groups += int(worst.sum()) * geometry.num_banks
        else:
            self.stats.rank_busy_groups += int(refreshed.sum())
        self._land(writes, reads, 1)  # after it
        self.stats.windows += 1
        self._end_window()
        delta = RefreshStats(**{
            name: value - getattr(before, name)
            for name, value in vars(self.stats).items()
        })
        if self.probes.checking:
            # conservation: every group in the schedule is either
            # refreshed or deliberately skipped, exactly once per window
            expected = (geometry.num_banks * geometry.ar_sets_per_bank
                        * geometry.rows_per_ar)
            self.probes.check(
                "refresh.window_conservation",
                delta.groups_total == expected,
                groups_total=delta.groups_total, expected=expected,
                t=round(start_time_s, 6),
            )
        return delta

    def _sides(self, start_time_s: float, banks: np.ndarray, rows: np.ndarray,
               times: np.ndarray) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """Stamp of each access and the masks of those landing before
        and after their own set's AR."""
        span, stamp = self.place(start_time_s, times)
        command = rows // self.geometry.rows_per_ar
        if self.policy == "per-bank":
            command = command * self.geometry.num_banks + banks
        return stamp, ((span >= 0) & (span <= command), span > command)

    def _land(self, writes, reads, side: int) -> None:
        """Apply the posted accesses on one side of their sets' ARs."""
        for batch, stamp, sides in writes:
            which = sides[side]
            self.device.write_lines(batch.take(which), stamp[which])
        for banks, rows, stamp, sides in reads:
            which = sides[side]
            self.device.activate_rows(banks[which], rows[which], stamp[which])

    def _end_window(self) -> None:
        """Called once the window's last traffic is applied."""
