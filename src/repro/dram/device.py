"""A DRAM rank: its state in rank-wide arrays and the bus-level interface.

:class:`DramDevice` stores the *bus-level* words of every chip row —
the bits as they travel on the data bus, after the CPU-side value
transformation.  Whether a stored bit corresponds to a charged or
discharged cell depends on the row's cell type (see
:mod:`repro.transform.celltype`): a chip row is *discharged* when all
its stored bits equal the cell type's discharged read value (all 0 for
true-cell rows, all 1 for anti-cell rows).

The device also keeps, per logical row:

* ``last_refresh`` — per chip slice, the most recent time the row's
  cells were recharged, either by a refresh operation or by a row
  activation (reads and writes open the row through the sense
  amplifiers, which restores the charge — the property Smart Refresh
  exploits).
* a *dirty* flag — content changed since the discharged status was last
  derived, consumed by the refresh engine when it renews the
  discharged-status table.

All of it lives in rank-wide arrays, bank axis first
(:func:`rank_state`), and the rank has one access path per
granularity: lines go through :meth:`DramDevice.write_lines`,
:meth:`~DramDevice.read_lines` and :meth:`~DramDevice.activate_rows`,
pages and rows through :meth:`~DramDevice.populate_rows`.  Every one of
them indexes all banks at once and recharges a row to the latest of
its stamps.  The device fans writes out to registered *write
observers* — the access-bit table of the optimised tracking design, or
the naive SRAM tracker, depending on configuration.  It works purely in
the stored-bit domain; value transformation happens in the memory
controller above it.

The wire-OR discharged detector of Sec. IV-B is :func:`discharged`;
the refresh engine invokes it only for rows it is refreshing anyway
(detection is free during refresh).
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.transform.celltype import CellTypeLayout
from repro.transform.ebdi import word_dtype

WriteObserver = Callable[[np.ndarray, np.ndarray], None]
"""Callback ``(banks, rows)`` invoked once per write or activation
batch with equal-length arrays, one entry per line or row slice."""


def rank_state(geometry: DramGeometry,
               layouts: Sequence[CellTypeLayout]) -> Tuple[np.ndarray, ...]:
    """Fresh state of a rank with one bank per layout, bank axis first:
    ``(data, last_refresh, dirty, anti, spared)``.  Stored words are
    ``(banks, rows, chips, lines, words)``; ``last_refresh`` is per
    (bank, row, chip), since staggered counters recharge a row's chip
    slices at different steps (Sec. IV-C); the flags are per (bank,
    row), with every row dirty."""
    rows = np.arange(geometry.rows_per_bank)
    shape = (len(layouts), geometry.rows_per_bank)
    return (
        np.zeros(shape + (geometry.num_chips, geometry.lines_per_row,
                          geometry.words_per_line_per_chip),
                 dtype=word_dtype(geometry.word_bytes)),
        np.zeros(shape + (geometry.num_chips,), dtype=np.float64),
        np.ones(shape, dtype=bool),
        np.stack([layout.cell_types(rows).astype(bool) for layout in layouts]),
        np.zeros(shape, dtype=bool),
    )


def discharged_value(anti: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The word a fully discharged row reads back, per row: all 0s on
    true-cell rows, all 1s on anti-cell rows."""
    return np.where(anti, dtype.type(np.iinfo(dtype).max), 0).astype(dtype)


def discharged(content: np.ndarray, anti: np.ndarray,
               spared: np.ndarray) -> np.ndarray:
    """Wire-OR detector: is each chip row slice of ``content`` (its last
    two axes, lines and words) discharged?  ``anti`` and ``spared`` are
    the flags of the slices' rows, shaped like ``content``'s row axes.
    A slice is discharged when every stored bit equals its row's
    discharged read value; spared rows (row sparing, Sec. IV-B) always
    report charged."""
    target = discharged_value(anti, content.dtype)
    lines, words = content.shape[-2:]
    flat = content.reshape(content.shape[:-2] + (lines * words,))
    target = target.reshape(target.shape + (1,) * (flat.ndim - target.ndim))
    out = (flat == target).all(axis=-1)
    out[spared] = False
    return out


def overdue_slices(last_refresh: np.ndarray, time_s: float,
                   tret_s: float) -> np.ndarray:
    """Indices of the slices of ``last_refresh`` overdue at ``time_s``,
    in index order.  A small relative tolerance absorbs floating-point
    drift: a slice refreshed exactly one window ago is on time."""
    deadline = tret_s * (1.0 + 1e-9)
    return np.argwhere(time_s - last_refresh > deadline)


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

    ``data``, ``last_refresh``, ``dirty``, ``anti`` and ``spared`` are
    the rank's :func:`rank_state` arrays.  Code writes into them in
    place and never rebinds them.

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
        (self.data, self.last_refresh, self.dirty, self.anti,
         self.spared) = rank_state(geometry, layouts)
        self._write_observers: List[WriteObserver] = []
        self._access_observers: List[WriteObserver] = []

    # ------------------------------------------------------------------
    def add_write_observer(self, observer: WriteObserver) -> None:
        """Register a callback invoked as ``observer(banks, rows)`` on writes."""
        self._write_observers.append(observer)

    def add_access_observer(self, observer: WriteObserver) -> None:
        """Register a callback fired on *any* row activation (reads and
        writes) — what access-recency schemes like Smart Refresh see."""
        self._access_observers.append(observer)

    def _notify(self, banks: np.ndarray, rows: np.ndarray) -> None:
        for observer in self._write_observers:
            observer(banks, rows)
        self._notify_access(banks, rows)

    def _notify_access(self, banks: np.ndarray, rows: np.ndarray) -> None:
        for observer in self._access_observers:
            observer(banks, rows)

    # ------------------------------------------------------------------
    def write_lines(self, writes: LineWrites, time_s=0.0) -> None:
        """Write transformed cachelines at ``time_s`` (one time, or one
        per line); the last write to a line wins."""
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
        self._notify(banks, rows)

    def read_lines(self, banks: np.ndarray, rows: np.ndarray,
                   lines_in_row: np.ndarray, time_s=0.0) -> np.ndarray:
        """Read cachelines at ``time_s`` (one time, or one per line);
        returns ``(num_chips, n, words_per_chip)`` words."""
        out = np.moveaxis(self.data, 2, 0)[:, banks, rows, lines_in_row]
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

    def populate_rows(self, banks: np.ndarray, rows: np.ndarray,
                      chip_data: np.ndarray, time_s: float = 0.0,
                      notify: bool = True, parts=0) -> None:
        """Bulk fill of rows or pages.

        ``chip_data`` is ``(n, chips, lines, words)``: slice ``i`` fills
        part ``parts[i]`` (or a scalar ``parts``) of row ``rows[i]`` of
        bank ``banks[i]``, rows cut into parts of ``lines`` lines: 0 for
        whole rows, 0 or 1 for a page of an 8 KB row.  No other line
        changes, and each row recharges as any write recharges it.
        With ``notify=False`` the fill models pre-existing content that
        settled before the measured windows (no access bits raised):
        the first refresh pass derives its status from scratch because
        rows start dirty.
        """
        lines = chip_data.shape[2]
        data = self.data.reshape(self.data.shape[:3] + (-1, lines)
                                 + self.data.shape[4:])
        # indices split by a slice put their axis first: the target is
        # (n, chips, lines, words), like chip_data
        data[banks, rows, :, parts] = chip_data
        self.dirty[banks, rows] = True
        self._recharge(banks, rows, time_s)
        if notify:
            self._notify(banks, rows)

    # ------------------------------------------------------------------
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
