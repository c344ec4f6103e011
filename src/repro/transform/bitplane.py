"""Bit-plane transposition stage of ZERO-REFRESH (paper Sec. V-C).

After the EBDI stage every delta word carries a small coded value: its
low-order bits are data, its high-order bits are discharged bits.  The
discharged bits are *not* contiguous across the line, though — each word
contributes its own little run.  The bit-plane stage (motivated by BPC
compression, Kim et al. ISCA 2016) transposes the delta bits so that the
*planes* — bit position j of every delta word — become contiguous.

Concretely, with D delta words of B bits each, the 448-bit (D=7, B=64)
delta region is re-laid-out plane-major::

    position j*D + w   <-   bit j of delta word w

Low-order planes (j small) hold the data of every delta; high-order
planes are entirely discharged.  After re-slicing the stream back into
B-bit words, the non-discharged content is concentrated in the
lowest-order word(s) of the line, and every remaining word consists of
discharged bits only — exactly what the data-rotation stage needs.

The transform is a fixed bit permutation, hence trivially invertible and
oblivious to the true/anti complement applied by the EBDI stage
(complementing commutes with permuting).

Read as a bit matrix, the delta region of a line is ``(D, B)`` (row w
holds the bits of delta word w), and the plane-major layout is its
``(B, D)`` transpose.  The kernel unpacks each line to bits, transposes
that matrix with a reshape and ``transpose`` and packs the bits back.
Unpacked bits take eight times the memory of the lines, so batches run
in fixed chunks of :data:`CHUNK_LINES` lines.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.transform.ebdi import word_dtype

CHUNK_LINES = 1024
"""Lines transposed per step: bounds the unpacked bits to a few hundred KB."""


class BitPlaneTransform:
    """Transpose delta-word bit planes within cachelines.

    Parameters mirror :class:`repro.transform.ebdi.EbdiCodec`: the line
    is ``words_per_line`` words of ``word_bytes`` bytes, and word 0 (the
    EBDI base) is left untouched.
    """

    def __init__(self, word_bytes: int = 8, line_bytes: int = 64):
        if sys.byteorder != "little":  # pragma: no cover - platform guard
            raise RuntimeError("BitPlaneTransform requires a little-endian host")
        if line_bytes % word_bytes != 0:
            raise ValueError(
                f"line size {line_bytes} is not a multiple of word size {word_bytes}"
            )
        self.word_bytes = word_bytes
        self.line_bytes = line_bytes
        self.words_per_line = line_bytes // word_bytes
        self.delta_words = self.words_per_line - 1
        if self.delta_words < 1:
            raise ValueError("need at least one delta word")
        self.word_bits = word_bytes * 8
        self.dtype = word_dtype(word_bytes)

    # ------------------------------------------------------------------
    def apply(self, lines: np.ndarray) -> np.ndarray:
        """Return lines with delta bit planes transposed (base untouched)."""
        return self._transpose(lines, self.delta_words, self.word_bits)

    def invert(self, lines: np.ndarray) -> np.ndarray:
        """Invert :meth:`apply`."""
        return self._transpose(lines, self.word_bits, self.delta_words)

    # ------------------------------------------------------------------
    def _transpose(self, lines: np.ndarray, rows: int, cols: int) -> np.ndarray:
        """Transpose every line's delta bits, read as a ``(rows, cols)``
        matrix in ``np.unpackbits(..., bitorder='little')`` order."""
        lines = np.asarray(lines)
        if lines.ndim != 2 or lines.shape[1] != self.words_per_line:
            raise ValueError(
                f"expected shape (n, {self.words_per_line}), got {lines.shape}"
            )
        if lines.dtype != self.dtype:
            raise TypeError(f"expected dtype {self.dtype}, got {lines.dtype}")
        out = lines.copy()
        for start in range(0, len(lines), CHUNK_LINES):
            deltas = np.ascontiguousarray(lines[start:start + CHUNK_LINES, 1:])
            bits = np.unpackbits(deltas.view(np.uint8), bitorder="little")
            planes = bits.reshape(-1, rows, cols).transpose(0, 2, 1)
            # packbits flattens the transposed view; every line's bit
            # count is a multiple of 8, so lines stay byte-aligned
            packed = np.packbits(planes, bitorder="little")
            out[start:start + len(deltas), 1:] = packed.view(self.dtype).reshape(
                deltas.shape
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitPlaneTransform(word_bytes={self.word_bytes}, "
            f"line_bytes={self.line_bytes})"
        )
