"""A DRAM rank: banks plus the bus-level read/write interface.

:class:`DramDevice` keeps the rank's state in rank-wide arrays, bank
axis first (:func:`~repro.dram.bank.rank_state`), so its batch paths
index every bank at once; each :class:`~repro.dram.bank.Bank` holds
views of its slice, and nothing may rebind them.  The device fans
writes out to registered *write observers* — the access-bit table of
the optimised tracking design, or the naive SRAM tracker, depending on
configuration.  It works purely in the stored-bit domain; value
transformation happens in the memory controller above it.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.dram.bank import Bank, discharged, rank_state
from repro.dram.geometry import DramGeometry
from repro.transform.celltype import CellTypeLayout

WriteObserver = Callable[[int, int], None]
"""Callback ``(bank, row)`` invoked after each line or row write; a bulk
write or read passes equal-length arrays instead, once for all its
lines."""


class LineWrites(NamedTuple):
    """Transformed cachelines bound for the array: where each one goes
    and its per-chip words, shape ``(num_chips, n, words_per_chip)``."""

    banks: np.ndarray
    rows: np.ndarray
    lines_in_row: np.ndarray
    chip_words: np.ndarray

    def take(self, which) -> "LineWrites":
        """The writes selected by an index or boolean mask, in order."""
        return LineWrites(self.banks[which], self.rows[which],
                          self.lines_in_row[which], self.chip_words[:, which])


class DramDevice:
    """One rank of DRAM built from :class:`DramGeometry`.

    Parameters
    ----------
    geometry:
        Structural parameters.
    layout:
        Ground-truth true/anti cell layout, shared by all banks (the
        block-regular layout of Sec. II-B).  Pass ``layouts`` for
        per-bank variation instead.
    """

    def __init__(
        self,
        geometry: DramGeometry,
        layout: Optional[CellTypeLayout] = None,
        layouts: Optional[Sequence[CellTypeLayout]] = None,
    ):
        self.geometry = geometry
        if layouts is None:
            layout = layout or CellTypeLayout(interleave=geometry.cell_interleave)
            layouts = [layout] * geometry.num_banks
        if len(layouts) != geometry.num_banks:
            raise ValueError("need one layout per bank")
        state = rank_state(geometry, layouts)
        self.data, self.last_refresh, self.dirty, self.anti, self.spared = state
        self.banks: List[Bank] = [
            Bank(geometry, layouts[b], index=b, state=[array[b] for array in state])
            for b in range(geometry.num_banks)
        ]
        self._write_observers: List[WriteObserver] = []
        self._access_observers: List[WriteObserver] = []

    # ------------------------------------------------------------------
    def add_write_observer(self, observer: WriteObserver) -> None:
        """Register a callback invoked as ``observer(bank, row)`` on writes."""
        self._write_observers.append(observer)

    def add_access_observer(self, observer: WriteObserver) -> None:
        """Register a callback fired on *any* row activation (reads and
        writes) — what access-recency schemes like Smart Refresh see."""
        self._access_observers.append(observer)

    def _notify(self, bank: int, row: int) -> None:
        for observer in self._write_observers:
            observer(bank, row)
        for observer in self._access_observers:
            observer(bank, row)

    def _notify_access(self, bank: int, row: int) -> None:
        for observer in self._access_observers:
            observer(bank, row)

    # ------------------------------------------------------------------
    def write_line(self, bank: int, row: int, line_in_row: int,
                   chip_words: np.ndarray, time_s: float = 0.0) -> None:
        """Write one transformed cacheline (per-chip words) to the array."""
        self.banks[bank].write_line(row, line_in_row, chip_words, time_s)
        self._notify(bank, row)

    def write_lines(self, writes: LineWrites, time_s=0.0) -> None:
        """Write many transformed cachelines at once, at ``time_s`` (one
        time, or one per line): the same state as :meth:`write_line`
        line by line, in order."""
        banks, rows, lines = writes.banks, writes.rows, writes.lines_in_row
        if not len(banks):
            return
        geometry = self.geometry
        key = (banks * geometry.rows_per_bank + rows) * geometry.lines_per_row + lines
        _, from_end = np.unique(key[::-1], return_index=True)
        last = len(key) - 1 - from_end
        # chips first, so (bank, row, line) indexes (chips, n, words)
        np.moveaxis(self.data, 2, 0)[:, banks[last], rows[last], lines[last]] = (
            writes.chip_words[:, last])
        self.dirty[banks, rows] = True
        self._recharge(banks, rows, time_s)
        for bank, n in zip(self.banks, self._per_bank(banks)):
            bank.write_count += n
        self._notify(banks, rows)

    def read_line(self, bank: int, row: int, line_in_row: int,
                  time_s: float = 0.0) -> np.ndarray:
        data = self.banks[bank].read_line(row, line_in_row, time_s)
        self._notify_access(bank, row)
        return data

    def read_lines(self, banks: np.ndarray, rows: np.ndarray,
                   lines_in_row: np.ndarray, time_s=0.0) -> np.ndarray:
        """Vectorised :meth:`read_line` at ``time_s`` (one time, or one
        per line); returns ``(num_chips, n, words_per_chip)`` words."""
        out = np.moveaxis(self.data, 2, 0)[:, banks, rows, lines_in_row]
        for bank, n in zip(self.banks, self._per_bank(banks)):
            bank.read_count += n
        self.activate_rows(banks, rows, time_s)
        return out

    def activate_rows(self, banks: np.ndarray, rows: np.ndarray,
                      time_s=0.0) -> None:
        """Row activations without a content change at ``time_s`` (one
        time, or one per row): recharge the rows, tell access observers."""
        if not len(banks):
            return
        self._recharge(banks, rows, time_s)
        self._notify_access(banks, rows)

    def _recharge(self, banks: np.ndarray, rows: np.ndarray, time_s) -> None:
        """Each opened row's slices rise to its latest activation time."""
        stamps = np.broadcast_to(np.asarray(time_s, dtype=float), np.shape(banks))
        np.maximum.at(self.last_refresh, (banks, rows), stamps[:, None])

    def _per_bank(self, banks: np.ndarray) -> list:
        """How many of ``banks`` name each bank of the rank."""
        return np.bincount(banks, minlength=self.geometry.num_banks).tolist()

    def write_row(self, bank: int, row: int, chip_data: np.ndarray,
                  time_s: float = 0.0) -> None:
        self.banks[bank].write_row(row, chip_data, time_s)
        self._notify(bank, row)

    def write_line_range(self, bank: int, row: int, start_line: int,
                         chip_data: np.ndarray, time_s: float = 0.0) -> None:
        """Write a run of lines within one row (partial-row pages)."""
        self.banks[bank].write_line_range(row, start_line, chip_data, time_s)
        self._notify(bank, row)

    def read_row(self, bank: int, row: int, time_s: float = 0.0) -> np.ndarray:
        data = self.banks[bank].read_row(row, time_s)
        self._notify_access(bank, row)
        return data

    def populate_rows(self, bank: int, rows: np.ndarray, chip_data: np.ndarray,
                      time_s: float = 0.0, notify: bool = True) -> None:
        """Bulk row fill for workload population.

        ``chip_data`` has shape ``(len(rows), chips, lines, words)``.
        With ``notify=False`` the fill models pre-existing content that
        settled before the measured windows (no access bits raised) —
        the first refresh pass then derives its status from scratch
        because rows start dirty.
        """
        self.banks[bank].write_rows_bulk(rows, chip_data, time_s)
        if notify:
            for row in np.asarray(rows):
                self._notify(bank, int(row))

    # ------------------------------------------------------------------
    @property
    def total_writes(self) -> int:
        return sum(bank.write_count for bank in self.banks)

    @property
    def total_reads(self) -> int:
        return sum(bank.read_count for bank in self.banks)

    def detect_discharged_per_chip(self, banks: np.ndarray,
                                   rows: np.ndarray) -> np.ndarray:
        """Per-(row, chip) discharged status of row ``rows[...]`` of bank
        ``banks[...]`` (broadcast together); shape ``(..., num_chips)``."""
        return discharged(self.data[banks, rows], self.anti[banks, rows],
                          self.spared[banks, rows])

    def discharged_row_fraction(self) -> float:
        """Fraction of logical rows currently fully discharged."""
        per_chip = discharged(self.data, self.anti, self.spared)
        return int(per_chip.all(axis=2).sum()) / self.geometry.total_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DramDevice(banks={self.geometry.num_banks}, "
            f"rows_per_bank={self.geometry.rows_per_bank})"
        )
