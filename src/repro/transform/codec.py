"""Composed value-transformation codec (paper Fig. 9).

:class:`ValueTransformCodec` chains the three pipeline stages — EBDI,
bit-plane transposition and data rotation — together with the cell-type
predictor, converting between logical cacheline contents and the bit
image actually stored across the chips of a rank.

Stage order on the write path (LLC eviction -> DRAM):

1. EBDI base-delta conversion with the true-cell zigzag code.
2. Bit-plane transposition of the delta words.
3. Complementing of the whole line when the target row is predicted to
   be an anti-cell row (equivalent to the paper's per-stage anti-cell
   encodings, since complementing commutes with both bit permutations).
4. Data rotation: word-to-chip assignment rotated by the row index.

Reads apply the exact inverse, using the *same* cell-type prediction,
so the round trip is exact even under misprediction (paper Sec. V-B).

There is one batched path each way:
:meth:`ValueTransformCodec.transform_lines` (steps 1-3) plus
:meth:`RotationMapper.scatter` (step 4) over ``(n, words)`` lines and a
vector of their rows, and its inverse.  Every other entry point (one
row, many rows, grouped requests) reshapes onto it.

:class:`StageSelection` switches stages off individually, which is what
the stage-contribution and cell-type ablation experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.transform.bitplane import BitPlaneTransform
from repro.transform.celltype import CellType, CellTypePredictor
from repro.transform.ebdi import EbdiCodec
from repro.transform.rotation import RotationMapper


@dataclass(frozen=True)
class StageSelection:
    """Which pipeline stages are active.

    ``ebdi``
        Base-delta conversion with the zigzag delta code.
    ``bitplane``
        Bit-plane transposition of the delta words.
    ``rotation``
        Per-row rotation of the word-to-chip assignment.
    ``celltype_aware``
        Complement lines stored in predicted anti-cell rows.  With this
        off, zero data in anti-cell rows stays charged and cannot be
        skipped.
    """

    ebdi: bool = True
    bitplane: bool = True
    rotation: bool = True
    celltype_aware: bool = True

    @classmethod
    def none(cls) -> "StageSelection":
        """Raw storage: values go to DRAM untouched (conventional system)."""
        return cls(ebdi=False, bitplane=False, rotation=False, celltype_aware=False)

    @classmethod
    def full(cls) -> "StageSelection":
        """The complete ZERO-REFRESH pipeline."""
        return cls()


class ValueTransformCodec:
    """Round-trip codec between cachelines and per-chip stored words.

    Parameters
    ----------
    predictor:
        Cell-type predictions per row, shared by encode and decode.
    num_chips, word_bytes, line_bytes:
        Rank and line geometry (defaults follow Table II).
    stages:
        Active pipeline stages; defaults to the full pipeline.
    """

    def __init__(
        self,
        predictor: CellTypePredictor,
        num_chips: int = 8,
        word_bytes: int = 8,
        line_bytes: int = 64,
        stages: Optional[StageSelection] = None,
    ):
        if stages is None:
            stages = StageSelection.full()
        self.predictor = predictor
        self.stages = stages
        self.ebdi = EbdiCodec(word_bytes, line_bytes)
        self.bitplane = BitPlaneTransform(word_bytes, line_bytes)
        self.rotation = RotationMapper(
            num_chips, word_bytes, line_bytes, rotate=stages.rotation
        )
        self.word_bytes = word_bytes
        self.line_bytes = line_bytes
        self.num_chips = num_chips
        self.dtype = self.ebdi.dtype
        self._all_ones = ~self.dtype.type(0)

    # ------------------------------------------------------------------
    # the batched path: (n, words) lines, one row per line (or one int)
    # ------------------------------------------------------------------
    def transform_lines(self, lines: np.ndarray, rows) -> np.ndarray:
        """Apply the per-line stages (EBDI, bit-plane, complement).

        ``lines`` has shape ``(n, words_per_line)``; ``rows`` is the
        target row of every line (an ``(n,)`` vector) or of all of them
        (one int).  Returns the transformed lines *before* chip
        distribution.
        """
        out = lines
        if self.stages.ebdi:
            out = self.ebdi.encode(out, CellType.TRUE)
        if self.stages.bitplane:
            out = self.bitplane.apply(out)
        return self._complement(out, rows)

    def untransform_lines(self, encoded: np.ndarray, rows) -> np.ndarray:
        """Invert :meth:`transform_lines`."""
        out = self._complement(encoded, rows)
        if self.stages.bitplane:
            out = self.bitplane.invert(out)
        if self.stages.ebdi:
            out = self.ebdi.decode(out, CellType.TRUE)
        return out

    def stored_zero(self, rows) -> np.ndarray:
        """How a transformed zero word is stored in each of ``rows``: all
        ones where the row is stored complemented (predicted anti-cell,
        with cell-type awareness on), else 0."""
        if not self.stages.celltype_aware:
            return np.zeros(np.shape(rows), dtype=self.dtype)
        return np.where(self.predictor.predict_anti(rows), self._all_ones,
                        self.dtype.type(0))

    def _complement(self, lines: np.ndarray, rows) -> np.ndarray:
        flip = self.stored_zero(rows)
        return lines ^ flip[..., None] if flip.any() else lines

    # ------------------------------------------------------------------
    def encode_row(self, lines: np.ndarray, row_index) -> np.ndarray:
        """Encode lines into per-chip stored words.

        ``lines`` has shape ``(n_lines, words_per_line)`` and
        ``row_index`` is their row (or an ``(n_lines,)`` vector of
        rows); returns shape ``(num_chips, n_lines, words_per_chip)``
        of stored (bus-level) words, ready to be written into chip row
        ``row_index``.
        """
        return self.rotation.scatter(self.transform_lines(lines, row_index), row_index)

    def decode_row(self, chip_data: np.ndarray, row_index) -> np.ndarray:
        """Invert :meth:`encode_row`, recovering the original lines."""
        return self.untransform_lines(
            self.rotation.gather(chip_data, row_index), row_index
        )

    # ------------------------------------------------------------------
    # bulk interface (vectorised over many rows)
    # ------------------------------------------------------------------
    def encode_rows(self, lines: np.ndarray, row_indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode_row` over many logical rows.

        ``lines`` has shape ``(n_rows, lines_per_row, words_per_line)``
        and ``row_indices`` the matching row numbers.  Returns shape
        ``(n_rows, num_chips, lines_per_row, words_per_chip)`` — the
        layout banks store rows in.
        """
        lines = np.asarray(lines)
        n_rows, lines_per_row, words = lines.shape
        rows = np.repeat(row_indices, lines_per_row)
        chips = self.encode_row(lines.reshape(-1, words), rows)
        return chips.reshape(
            self.num_chips, n_rows, lines_per_row, self.rotation.words_per_chip
        ).swapaxes(0, 1)

    def decode_rows(self, chip_data: np.ndarray, row_indices: np.ndarray) -> np.ndarray:
        """Invert :meth:`encode_rows`."""
        chip_data = np.asarray(chip_data)
        n_rows, chips, lines_per_row, words_per_chip = chip_data.shape
        rows = np.repeat(row_indices, lines_per_row)
        lines = self.decode_row(
            chip_data.swapaxes(0, 1).reshape(chips, -1, words_per_chip), rows
        )
        return lines.reshape(n_rows, lines_per_row, self.rotation.words_per_line)

    # ------------------------------------------------------------------
    # grouped interface (the serving layer's micro-batches)
    # ------------------------------------------------------------------
    def transform_lines_many(
        self, line_groups: "list[np.ndarray]", row_indices: "list[int]"
    ) -> "list[np.ndarray]":
        """:meth:`transform_lines` over several line groups in one pass.

        ``line_groups[i]`` is a ``(n_i, words_per_line)`` array bound
        for row ``row_indices[i]``; each returned group is bit-identical
        to ``transform_lines(line_groups[i], row_indices[i])``.
        """
        return self._grouped(self.transform_lines, line_groups, row_indices)

    def untransform_lines_many(
        self, encoded_groups: "list[np.ndarray]", row_indices: "list[int]"
    ) -> "list[np.ndarray]":
        """Invert :meth:`transform_lines_many` (grouped decode path)."""
        return self._grouped(self.untransform_lines, encoded_groups, row_indices)

    @staticmethod
    def _grouped(batched, groups, row_indices):
        if not groups:
            return []
        counts = [len(group) for group in groups]
        flat = batched(np.concatenate(groups), np.repeat(row_indices, counts))
        return np.split(flat, np.cumsum(counts)[:-1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ValueTransformCodec(chips={self.num_chips}, "
            f"word_bytes={self.word_bytes}, line_bytes={self.line_bytes}, "
            f"stages={self.stages})"
        )
