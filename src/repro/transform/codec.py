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

The write path is one word-major pass.
:meth:`ValueTransformCodec.encode_row` (a row per line) and
:meth:`ValueTransformCodec.encode_rows` (whole rows, in the layout
banks store them in) walk their lines in chunks of :data:`CHUNK_LINES`.  Three chunk-sized buffers, allocated
once per call, carry each chunk through the stages' kernels with word
``w`` of every line in one contiguous run: EBDI's
:func:`~repro.transform.ebdi.delta_code` in place, the bit-plane
:func:`~repro.transform.bitplane.forward` kernel (from a line-major
copy, which its first byte permutation reads fastest), the complement
as one XOR per line, and :meth:`RotationMapper.deal` straight into the
destination.  :meth:`ValueTransformCodec.transform_lines` composes the
public stage methods on the same kernels.
:meth:`ValueTransformCodec.decode_row` is the one read path, and
:meth:`ValueTransformCodec.decode_rows` reshapes onto it.

:class:`StageSelection` switches stages off individually, which is what
the stage-contribution and cell-type ablation experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.transform.bitplane import CHUNK_LINES, BitPlaneTransform, forward
from repro.transform.celltype import CellType, CellTypePredictor
from repro.transform.ebdi import EbdiCodec, delta_code
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
        ``row_index``.  The lines go through every stage in chunks of
        :data:`CHUNK_LINES`, each dealt straight into the result.
        """
        lines = self._check(lines)
        n_lines = len(lines)
        rows = np.asarray(row_index)
        if rows.ndim and rows.shape != (n_lines,):
            raise ValueError(
                f"expected one row or {n_lines} rows, got shape {rows.shape}"
            )
        out = np.empty((self.num_chips, n_lines, self.rotation.words_per_chip),
                       dtype=self.dtype)
        # every line is a group of one
        self._encode(lines[:, None], rows, out[..., None], chips_first=True)
        return out

    def _encode(self, lines: np.ndarray, rows: np.ndarray, out: np.ndarray,
                chips_first: bool = False) -> None:
        """The write path over groups of lines that share a row.

        ``lines`` is ``(groups, size, words_per_line)`` and ``rows`` the
        ``(groups,)`` rows (or one for all groups).  The stored words go
        to ``out``, laid out as :meth:`RotationMapper.deal` takes it.
        Whole groups of at most :data:`CHUNK_LINES` lines (at least one
        group) make a chunk.
        """
        groups, size, words = lines.shape
        per_chunk = max(1, CHUNK_LINES // max(size, 1))
        buffers = np.empty((3, words * min(groups, per_chunk) * size),
                           dtype=self.dtype)
        for start in range(0, groups, per_chunk):
            part = slice(start, start + per_chunk)
            self._encode_chunk(lines[part], rows[part] if rows.ndim else rows,
                               out[:, part] if chips_first else out[part],
                               buffers, chips_first)

    def _encode_chunk(self, lines, rows, out, buffers, chips_first) -> None:
        groups, size, words = lines.shape
        n = groups * size
        a, b, c = buffers[:, :n * words]
        # word-major: stage[w, g * size + i] is word w of line i of group g
        stage = a.reshape(words, n)
        np.copyto(stage.reshape(words, groups, size), lines.transpose(2, 0, 1))
        if self.stages.ebdi:
            delta_code(stage[1:], stage[0], c[n:].reshape(words - 1, n))
        if self.stages.bitplane:
            # the kernel reads a line-major copy as uint64 and leaves its
            # result word-major in a or c, each uint64 packing k words
            line_major = b.reshape(n, words)
            np.copyto(line_major, stage.T)
            k = 8 // self.word_bytes
            shape = (words // k, n)
            planes, free = forward(self.bitplane.plan(),
                                   b.view(np.uint64).reshape(n, shape[0]),
                                   a.view(np.uint64).reshape(shape),
                                   c.view(np.uint64).reshape(shape))
            stage = planes.view(self.dtype)
            if k > 1:  # split every uint64 into its k words
                packed = stage.reshape(shape[0], n, k).transpose(0, 2, 1)
                stage = free.view(self.dtype).reshape(words, n)
                np.copyto(stage.reshape(shape[0], k, n), packed)
            # the kernel clears the base word; the line-major copy has it
            stage[0] |= line_major[:, 0]
        stage = stage.reshape(words, groups, size)
        flip = self.stored_zero(rows)
        if flip.any():
            np.bitwise_xor(stage, flip[..., None], out=stage)
        self.rotation.deal(stage, rows, out, chips_first)

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
        and ``row_indices`` the matching row numbers.  Returns a
        C-contiguous array of shape ``(n_rows, num_chips,
        lines_per_row, words_per_chip)`` — the layout banks store rows
        in.  A chunk is as many whole rows as fit in
        :data:`CHUNK_LINES` lines (at least one).
        """
        lines = self._check(lines, leading=2)
        n_rows, lines_per_row, _ = lines.shape
        rows = np.ravel(row_indices)
        if rows.shape != (n_rows,):
            raise ValueError(
                f"expected {n_rows} rows, got shape {rows.shape}"
            )
        out = np.empty((n_rows, self.num_chips, lines_per_row,
                        self.rotation.words_per_chip), dtype=self.dtype)
        self._encode(lines, rows, out.transpose(0, 1, 3, 2))
        return out

    def decode_rows(self, chip_data: np.ndarray, row_indices: np.ndarray) -> np.ndarray:
        """Invert :meth:`encode_rows`."""
        chip_data = np.asarray(chip_data)
        n_rows, chips, lines_per_row, words_per_chip = chip_data.shape
        rows = np.repeat(row_indices, lines_per_row)
        lines = self.decode_row(
            chip_data.swapaxes(0, 1).reshape(chips, -1, words_per_chip), rows
        )
        return lines.reshape(n_rows, lines_per_row, self.rotation.words_per_line)

    def _check(self, lines, leading: int = 1) -> np.ndarray:
        """``lines`` as an array of ``leading`` axes of lines; the write
        path's shape and dtype checks."""
        lines = np.asarray(lines)
        words = self.rotation.words_per_line
        if lines.ndim != leading + 1 or lines.shape[-1] != words:
            raise ValueError(
                f"expected {leading} axes of {words}-word lines, got shape "
                f"{lines.shape}"
            )
        if lines.dtype != self.dtype:
            raise TypeError(f"expected dtype {self.dtype}, got {lines.dtype}")
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ValueTransformCodec(chips={self.num_chips}, "
            f"word_bytes={self.word_bytes}, line_bytes={self.line_bytes}, "
            f"stages={self.stages})"
        )
