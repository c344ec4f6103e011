"""Per-bank storage, charge-state derivation and activation bookkeeping.

A :class:`Bank` stores the *bus-level* words of every chip row — the
bits as they travel on the data bus, after the CPU-side value
transformation.  Whether a stored bit corresponds to a charged or
discharged cell depends on the row's cell type (see
:mod:`repro.transform.celltype`): a chip row is *discharged* when all
its stored bits equal the cell type's discharged read value (all 0 for
true-cell rows, all 1 for anti-cell rows).

The bank also keeps, per logical row:

* ``last_refresh`` — the most recent time the row's cells were
  recharged, either by a refresh operation or by a row activation
  (reads and writes open the row through the sense amplifiers, which
  restores the charge — the property Smart Refresh exploits).
* a *dirty* flag — content changed since the discharged status was last
  derived, consumed by the refresh engine when it renews the
  discharged-status table.

These arrays and the bank's anti-cell and spared flags are views of
its slice of the rank's arrays (:func:`rank_state`, held by
:class:`~repro.dram.device.DramDevice`), not copies.  Nothing may
rebind them (``bank.data = ...``); write into them in place.

The wire-OR discharged detector of Sec. IV-B is :func:`discharged`;
the refresh engine invokes it only for rows it is refreshing anyway
(detection is free during refresh).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.transform.celltype import CellTypeLayout
from repro.transform.ebdi import word_dtype


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
    discharged read value; spared rows always report charged."""
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


class Bank:
    """One DRAM bank: (rows, chips, lines-per-row, words-per-line-per-chip).

    ``data``, ``last_refresh``, ``dirty`` and the flags are views of the
    rank's arrays: code writes into them in place and never rebinds
    them (``bank.data = ...``), or the bank and its rank part ways.

    Parameters
    ----------
    geometry:
        Rank geometry shared by every bank.
    layout:
        Ground-truth true/anti cell layout of this bank's rows.
    index:
        Bank number within the rank (for diagnostics).
    state:
        Views of its slice of the rank's :func:`rank_state` arrays; by
        default the bank is a rank of its own.
    """

    def __init__(self, geometry: DramGeometry, layout: CellTypeLayout,
                 index: int = 0, state: Optional[Sequence[np.ndarray]] = None):
        self.geometry = geometry
        self.layout = layout
        self.index = index
        if state is None:
            state = [array[0] for array in rank_state(geometry, [layout])]
        (self.data, self.last_refresh, self.dirty, self._anti_rows,
         self._spared) = state
        self.write_count = 0
        self.read_count = 0

    # ------------------------------------------------------------------
    # data access (bus-level words)
    # ------------------------------------------------------------------
    def write_line(self, row: int, line_in_row: int, chip_words: np.ndarray,
                   time_s: float = 0.0) -> None:
        """Store one cacheline's per-chip words into a row.

        ``chip_words`` has shape ``(num_chips, words_per_line_per_chip)``
        — the output of one line slice of
        :meth:`repro.transform.codec.ValueTransformCodec.encode_row`.
        Activating the row recharges it, so ``last_refresh`` advances.
        """
        self.data[row, :, line_in_row, :] = chip_words
        self._touch(row, time_s)
        self.write_count += 1

    def read_line(self, row: int, line_in_row: int, time_s: float = 0.0) -> np.ndarray:
        """Read one cacheline's per-chip words (activation recharges the row)."""
        self._touch_clean(row, time_s)
        self.read_count += 1
        return self.data[row, :, line_in_row, :].copy()

    def write_row(self, row: int, chip_data: np.ndarray, time_s: float = 0.0) -> None:
        """Store a whole logical row: shape (chips, lines_per_row, words)."""
        self.data[row] = chip_data
        self._touch(row, time_s)
        self.write_count += self.geometry.lines_per_row

    def write_line_range(self, row: int, start_line: int, chip_data: np.ndarray,
                         time_s: float = 0.0) -> None:
        """Store a run of lines within a row (partial-row pages).

        ``chip_data`` has shape (chips, n_lines, words-per-line-per-chip).
        """
        n_lines = chip_data.shape[1]
        self.data[row, :, start_line:start_line + n_lines, :] = chip_data
        self._touch(row, time_s)
        self.write_count += n_lines

    def read_row(self, row: int, time_s: float = 0.0) -> np.ndarray:
        """Read a whole logical row (chips, lines_per_row, words)."""
        self._touch_clean(row, time_s)
        self.read_count += self.geometry.lines_per_row
        return self.data[row].copy()

    def write_rows_bulk(self, rows: np.ndarray, chip_data: np.ndarray,
                        time_s: float = 0.0) -> None:
        """Vectorised multi-row write used for workload population."""
        self.data[rows] = chip_data
        self.dirty[rows] = True
        self.last_refresh[rows] = time_s
        self.write_count += len(rows) * self.geometry.lines_per_row

    def _touch(self, row: int, time_s: float) -> None:
        self.dirty[row] = True
        np.maximum(self.last_refresh[row], time_s, out=self.last_refresh[row])

    def _touch_clean(self, row: int, time_s: float) -> None:
        """Row activation without content change (reads recharge too)."""
        np.maximum(self.last_refresh[row], time_s, out=self.last_refresh[row])

    # ------------------------------------------------------------------
    # charge state
    # ------------------------------------------------------------------
    def is_anti_row(self, row: int) -> bool:
        return bool(self._anti_rows[row])

    def spare_row(self, row: int) -> None:
        """Mark a row as used by row sparing; refresh skip is disabled
        for spared rows (paper Sec. IV-B)."""
        self._spared[row] = True

    def detect_discharged(self, rows: np.ndarray) -> np.ndarray:
        """Wire-OR detector: is each logical row fully discharged?

        A logical row counts as discharged only if *every chip's* row
        slice is discharged.  Spared rows always report charged.
        Returns a bool array aligned with ``rows``.
        """
        return self.detect_discharged_per_chip(rows).all(axis=1)

    def detect_discharged_per_chip(self, rows: np.ndarray) -> np.ndarray:
        """Per-(row, chip) discharged status; shape (n, num_chips)."""
        rows = np.asarray(rows)
        return discharged(self.data[rows], self._anti_rows[rows],
                          self._spared[rows])

    # ------------------------------------------------------------------
    # refresh bookkeeping
    # ------------------------------------------------------------------
    def refresh_slices(self, rows: np.ndarray, chips: np.ndarray,
                       time_s: float) -> None:
        """Recharge specific (row, chip) slices (staggered refresh steps)."""
        self.last_refresh[np.asarray(rows), np.asarray(chips)] = time_s

    def refresh_rows(self, rows: np.ndarray, time_s: float) -> None:
        """Recharge whole rows across all chips."""
        self.last_refresh[np.asarray(rows), :] = time_s

    def overdue_slices(self, time_s: float, tret_s: float) -> np.ndarray:
        """(row, chip) index pairs overdue for refresh; shape (n, 2)."""
        return overdue_slices(self.last_refresh, time_s, tret_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bank(index={self.index}, rows={self.geometry.rows_per_bank}, "
            f"chips={self.geometry.num_chips})"
        )

