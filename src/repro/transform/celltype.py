"""True/anti-cell modelling and identification (paper Sec. II-B, V-B).

A DRAM sense amplifier sits between two row partitions.  Cells wired to
the output side read their charged state as logical 1 (*true cells*);
cells on the opposite side read charged as logical 0 (*anti cells*).
Consequently a *discharged* cell reads 0 in a true-cell row but 1 in an
anti-cell row, and ZERO-REFRESH must encode data differently for the two
row kinds to maximise discharged cells.

Prior work (Kim et al. ISCA 2014; Wu et al. ASPLOS 2019) found that true
and anti rows alternate in regular blocks of N rows, with N = 512 in
common devices, and that the type of each row can be identified by a
simple retention experiment: write all-zero data, suspend refresh for a
few retention windows, and read back — true-cell rows still read zero
(their cells merely stayed discharged) while anti-cell rows decay toward
zero *charge*, i.e. read back ones.

This module provides:

* :class:`CellType` — the two row kinds.
* :class:`CellTypeLayout` — the ground-truth layout of a chip
  (block-interleaved with configurable block size and phase).
* :func:`identify_cell_types` — the retention-experiment identification
  procedure, run against a layout, optionally with measurement noise.
* :class:`CellTypePredictor` — the (possibly imperfect) table the
  CPU-side transformation consults; mispredictions only forfeit refresh
  reduction, never correctness.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

DEFAULT_INTERLEAVE = 512
"""Rows per true/anti block observed in common devices (paper Sec. II-B)."""


class CellType(enum.Enum):
    """Kind of cells a DRAM row is built from.

    ``TRUE`` rows read a discharged cell as logical 0; ``ANTI`` rows
    read a discharged cell as logical 1.
    """

    TRUE = 0
    ANTI = 1

    @property
    def discharged_bit(self) -> int:
        """Logical bit value that a discharged cell reads as."""
        return self.value

    def flipped(self) -> "CellType":
        return CellType.ANTI if self is CellType.TRUE else CellType.TRUE


class CellTypeLayout:
    """Ground-truth true/anti layout of one DRAM chip.

    Rows alternate between true and anti cells in blocks of
    ``interleave`` rows.  ``phase`` selects which kind the first block
    is (0: rows 0..interleave-1 are true cells), modelling device-to-
    device variation.
    """

    def __init__(self, interleave: int = DEFAULT_INTERLEAVE, phase: int = 0):
        if interleave < 1:
            raise ValueError("interleave must be positive")
        if phase not in (0, 1):
            raise ValueError("phase must be 0 or 1")
        self.interleave = interleave
        self.phase = phase

    def cell_type(self, row: int) -> CellType:
        """Return the cell type of ``row``."""
        block = row // self.interleave
        return CellType((block + self.phase) % 2)

    def cell_types(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`cell_type`: returns an int array of CellType values."""
        rows = np.asarray(rows)
        return ((rows // self.interleave) + self.phase) % 2

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CellTypeLayout)
            and self.interleave == other.interleave
            and self.phase == other.phase
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellTypeLayout(interleave={self.interleave}, phase={self.phase})"


def identify_cell_types(
    layout: CellTypeLayout,
    num_rows: int,
    error_rate: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Run the retention-experiment identification against a layout.

    Models the procedure of the prior work: after writing zeros and
    suspending refresh, rows that read back non-zero are anti-cell rows.
    ``error_rate`` injects per-row misidentification (e.g. rows whose
    cells happen to retain charge longer than the suspended window),
    exercising the paper's claim that identification need not be exact.

    Returns an ``(num_rows,)`` array of 0 (true) / 1 (anti) predictions.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError("error_rate must be within [0, 1]")
    truth = layout.cell_types(np.arange(num_rows))
    if error_rate == 0.0:
        return truth.copy()
    rng = rng or np.random.default_rng()
    flips = rng.random(num_rows) < error_rate
    return np.where(flips, 1 - truth, truth)


class CellTypePredictor:
    """Cell-type table consulted by the CPU-side value transformation.

    The predictor stores one predicted :class:`CellType` per DRAM row.
    It is typically built from :func:`identify_cell_types`; a perfect
    predictor can be built directly from a layout with
    :meth:`from_layout`.

    The codec uses predictions symmetrically for encode and decode, so a
    misprediction is still round-trip safe — it only stores data with
    charged high-order cells, losing the refresh-skip opportunity for
    that row (paper Sec. V-B).
    """

    def __init__(self, predictions: np.ndarray):
        predictions = np.asarray(predictions)
        if predictions.ndim != 1:
            raise ValueError("predictions must be one-dimensional")
        if not np.isin(predictions, (0, 1)).all():
            raise ValueError("predictions must contain only 0 (true) / 1 (anti)")
        self._table = predictions.astype(np.int8)

    @classmethod
    def from_layout(
        cls,
        layout: CellTypeLayout,
        num_rows: int,
        error_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> "CellTypePredictor":
        """Build a predictor by running identification against ``layout``."""
        return cls(identify_cell_types(layout, num_rows, error_rate, rng))

    def __len__(self) -> int:
        return len(self._table)

    def predict(self, row: int) -> CellType:
        """Predicted cell type of ``row``."""
        return CellType(int(self._table[row]))

    def predict_anti(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised prediction: True where a row is predicted anti-cell."""
        return self._table[np.asarray(rows)].astype(bool)

    def accuracy(self, layout: CellTypeLayout) -> float:
        """Fraction of rows whose prediction matches ``layout``."""
        truth = layout.cell_types(np.arange(len(self._table)))
        return float(np.mean(self._table == truth))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellTypePredictor(rows={len(self._table)})"
