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

The wire-OR discharged detector of Sec. IV-B is modelled by
:meth:`Bank.detect_discharged`, which the refresh engine invokes only
for rows it is refreshing anyway (detection is free during refresh).
"""

from __future__ import annotations

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.transform.celltype import CellTypeLayout
from repro.transform.ebdi import word_dtype


class Bank:
    """One DRAM bank: (rows, chips, lines-per-row, words-per-line-per-chip).

    Parameters
    ----------
    geometry:
        Rank geometry shared by every bank.
    layout:
        Ground-truth true/anti cell layout of this bank's rows.
    index:
        Bank number within the rank (for diagnostics).
    """

    def __init__(self, geometry: DramGeometry, layout: CellTypeLayout, index: int = 0):
        self.geometry = geometry
        self.layout = layout
        self.index = index
        dtype = word_dtype(geometry.word_bytes)
        self._full = dtype.type((1 << (geometry.word_bytes * 8)) - 1)
        self.data = np.zeros(
            (
                geometry.rows_per_bank,
                geometry.num_chips,
                geometry.lines_per_row,
                geometry.words_per_line_per_chip,
            ),
            dtype=dtype,
        )
        # Charge bookkeeping is per (row, chip): with staggered refresh
        # counters the chip slices of one logical row are refreshed at
        # different steps (Sec. IV-C).
        self.last_refresh = np.zeros(
            (geometry.rows_per_bank, geometry.num_chips), dtype=np.float64
        )
        self.dirty = np.ones(geometry.rows_per_bank, dtype=bool)
        self._anti_rows = (
            layout.cell_types(np.arange(geometry.rows_per_bank)).astype(bool)
        )
        self._spared = np.zeros(geometry.rows_per_bank, dtype=bool)
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

    def write_lines(self, rows: np.ndarray, lines_in_row: np.ndarray,
                    chip_words: np.ndarray, time_s) -> None:
        """Vectorised :meth:`write_line`, in order: the last write to a
        line wins, and each row's ``last_refresh`` rises to the latest
        of its writes' times (``time_s``: one time, or one per line).
        ``chip_words`` has shape ``(num_chips, n, words_per_line_per_chip)``.
        """
        key = rows * self.geometry.lines_per_row + lines_in_row
        _, from_end = np.unique(key[::-1], return_index=True)
        last = len(key) - 1 - from_end
        self.data[rows[last], :, lines_in_row[last], :] = (
            chip_words[:, last].swapaxes(0, 1)
        )
        self.dirty[rows] = True
        self.activate(rows, time_s)
        self.write_count += len(rows)

    def activate(self, rows: np.ndarray, time_s) -> None:
        """Row activations at ``time_s`` (one time, or one per row):
        each opened row is recharged."""
        stamps = np.broadcast_to(np.asarray(time_s, dtype=float), np.shape(rows))
        np.maximum.at(self.last_refresh, rows, stamps[:, None])

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
        """Per-(row, chip) discharged status; shape (n, num_chips).

        A chip slice is discharged when every stored bit equals the
        row's discharged read value: 0 for true-cell rows, 1 for
        anti-cell rows.
        """
        rows = np.asarray(rows)
        content = self.data[rows]
        target = np.where(self._anti_rows[rows], self._full, 0).astype(self.data.dtype)
        flat = content.reshape(len(rows), self.geometry.num_chips, -1)
        discharged = (flat == target[:, None, None]).all(axis=2)
        discharged[self._spared[rows]] = False
        return discharged

    # ------------------------------------------------------------------
    # refresh bookkeeping
    # ------------------------------------------------------------------
    def refresh_slices(self, rows: np.ndarray, chips: np.ndarray,
                       time_s: float) -> None:
        """Recharge specific (row, chip) slices (staggered refresh steps)."""
        self.last_refresh[np.asarray(rows), np.asarray(chips)] = time_s

    def refresh_groups(self, rows: np.ndarray, mask: np.ndarray,
                       times: np.ndarray) -> np.ndarray:
        """Recharge the chip slices of refresh groups; returns their
        previous ``last_refresh``.

        ``rows[i, c, k]`` is the row chip ``c`` recharges for group
        ``k`` of command ``i``, issued at ``times[i]``; ``mask[i, k]``
        selects the groups actually refreshed.  No (row, chip) slice
        may appear twice.
        """
        chips = np.arange(self.geometry.num_chips)[:, None]
        flat = rows * self.geometry.num_chips + chips
        stamps = self.last_refresh.reshape(-1)
        last = stamps[flat]
        stamps[flat] = np.where(mask[:, None, :], times[:, None, None], last)
        return last

    def refresh_rows(self, rows: np.ndarray, time_s: float) -> None:
        """Recharge whole rows across all chips."""
        self.last_refresh[np.asarray(rows), :] = time_s

    def overdue_slices(self, time_s: float, tret_s: float) -> np.ndarray:
        """(row, chip) index pairs overdue for refresh; shape (n, 2).

        A small relative tolerance absorbs floating-point drift in the
        simulated clock: a slice refreshed exactly one window ago is on
        time, not overdue.
        """
        deadline = tret_s * (1.0 + 1e-9)
        return np.argwhere(time_s - self.last_refresh > deadline)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bank(index={self.index}, rows={self.geometry.rows_per_bank}, "
            f"chips={self.geometry.num_chips})"
        )
