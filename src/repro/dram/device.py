"""A DRAM rank: banks plus the bus-level read/write interface.

:class:`DramDevice` owns one :class:`~repro.dram.bank.Bank` per bank and
fans writes out to registered *write observers* — the access-bit table
of the optimised tracking design, or the naive SRAM tracker, depending
on configuration.  The device works purely in the stored-bit domain;
value transformation happens in the memory controller above it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.dram.bank import Bank
from repro.dram.geometry import DramGeometry
from repro.transform.celltype import CellTypeLayout

WriteObserver = Callable[[int, int], None]
"""Callback ``(bank, row)`` invoked after each line or row write."""


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
        self.banks: List[Bank] = [
            Bank(geometry, layouts[b], index=b) for b in range(geometry.num_banks)
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

    def read_line(self, bank: int, row: int, line_in_row: int,
                  time_s: float = 0.0) -> np.ndarray:
        data = self.banks[bank].read_line(row, line_in_row, time_s)
        self._notify_access(bank, row)
        return data

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

    def discharged_row_fraction(self) -> float:
        """Fraction of logical rows currently fully discharged."""
        rows = np.arange(self.geometry.rows_per_bank)
        total = 0
        for bank in self.banks:
            total += int(bank.detect_discharged(rows).sum())
        return total / self.geometry.total_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DramDevice(banks={self.geometry.num_banks}, "
            f"rows_per_bank={self.geometry.rows_per_bank})"
        )
