"""EBDI (Encoded Base-Delta-Immediate) stage of ZERO-REFRESH (paper Sec. V-B).

EBDI is derived from BDI compression (Pekhimenko et al., PACT 2012) but,
unlike BDI, it never changes the size of a cacheline.  The first word of
the line is kept verbatim as the *base*; every other word is replaced by
the difference between the word and the base.  Because values within a
cacheline tend to be close to each other, the deltas have small absolute
values — but in two's complement a small *negative* delta is mostly 1
bits, which would charge every cell of a true-cell row.

The paper therefore introduces a dedicated delta code (Fig. 11) in which
the sign lives in the low-order bit and the magnitude grows upward, so
that small deltas of either sign have runs of 0 in their high-order
bits.  That is exactly the *zigzag* code::

    enc(d) = 2*d        if d >= 0
    enc(d) = -2*d - 1   if d <  0

giving the sequence 0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...

For anti-cell rows a stored 0 bit corresponds to a *charged* cell, so
the anti-cell encoding is the bitwise complement of the true-cell
encoding (including the base word): small deltas then have runs of 1 in
their high-order bits, which are discharged anti-cells.

Both codes are bijections on fixed-width words, so decoding always
recovers the original line exactly — even when the cell type of the
target row was mispredicted, in which case only refresh-reduction
opportunity is lost (paper Sec. V-B).

All functions operate on *batches* of cachelines: arrays of shape
``(n_lines, words_per_line)`` with an unsigned dtype selected by the
word size (``uint32`` for 4-byte words, ``uint64`` for 8-byte words).
"""

from __future__ import annotations

import numpy as np

from repro.transform.celltype import CellType

_WORD_DTYPES = {2: np.uint16, 4: np.uint32, 8: np.uint64}
_SIGNED_DTYPES = {2: np.int16, 4: np.int32, 8: np.int64}


def word_dtype(word_bytes: int) -> np.dtype:
    """Return the unsigned numpy dtype used for a given word size.

    ZERO-REFRESH's experimental configuration fixes the word size to 8
    bytes (paper Sec. V-B), but 2- and 4-byte words are supported for
    the word-size ablation.
    """
    try:
        return np.dtype(_WORD_DTYPES[word_bytes])
    except KeyError:
        raise ValueError(
            f"unsupported EBDI word size {word_bytes}; expected one of "
            f"{sorted(_WORD_DTYPES)}"
        ) from None


def _bit_length(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every unsigned integer in ``values``.

    A binary search with integer shifts, because a ``log2`` goes through
    float64, which rounds some values above 2^53 up to a power of two.
    """
    width = np.zeros(values.shape, dtype=np.int64)
    shift = values.dtype.itemsize * 4
    while shift:
        high = values >> values.dtype.type(shift)
        wide = high != 0
        values = np.where(wide, high, values)
        width += wide * shift
        shift //= 2
    return width + (values != 0)


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed deltas to the EBDI true-cell code (Fig. 11b).

    ``values`` must be a signed integer array; the result has the
    corresponding unsigned dtype and the property that
    ``zigzag_encode(d) < 2*|d| + 1``, i.e. small magnitudes get leading
    zeros.
    """
    bits = values.dtype.itemsize * 8
    encoded = (values << 1) ^ (values >> (bits - 1))
    return encoded.astype(_WORD_DTYPES[values.dtype.itemsize], copy=False)


def delta_code(words: np.ndarray, base: np.ndarray, tmp: np.ndarray) -> None:
    """Replace ``words`` with the true-cell code of their delta from
    ``base``, in place: ``zigzag_encode(words - base)``.

    ``words`` is unsigned and ``base`` broadcasts against it; ``tmp`` is
    scratch of ``words``' shape and dtype.  This is the one EBDI
    kernel: :meth:`EbdiCodec.encode` runs it on line-major delta
    columns, the codec's write path on word-major chunks, where every
    step is one contiguous pass over a chunk.
    """
    signed = _SIGNED_DTYPES[words.dtype.itemsize]
    # unsigned wrap-around subtraction == two's-complement delta
    np.subtract(words, base, out=words)
    np.right_shift(words.view(signed), words.dtype.itemsize * 8 - 1,
                   out=tmp.view(signed))
    np.left_shift(words, 1, out=words)
    np.bitwise_xor(words, tmp, out=words)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Invert :func:`zigzag_encode`; returns a signed array."""
    signed_dtype = _SIGNED_DTYPES[values.dtype.itemsize]
    # Logical (unsigned) shift, then drop into the signed domain; the
    # shifted value always fits because its top bit is clear.
    magnitude = (values >> 1).view(signed_dtype)
    sign = -(values & 1).view(signed_dtype)
    return magnitude ^ sign


class EbdiCodec:
    """The EBDI stage: base-delta conversion with cell-type aware codes.

    Parameters
    ----------
    word_bytes:
        Size of an EBDI word.  The paper's configuration uses 8 bytes.
    line_bytes:
        Size of a cacheline (64 bytes in the paper).

    The codec is stateless; one instance can be shared freely.
    """

    def __init__(self, word_bytes: int = 8, line_bytes: int = 64):
        if line_bytes % word_bytes != 0:
            raise ValueError(
                f"line size {line_bytes} is not a multiple of word size {word_bytes}"
            )
        self.word_bytes = word_bytes
        self.line_bytes = line_bytes
        self.words_per_line = line_bytes // word_bytes
        if self.words_per_line < 2:
            raise ValueError("EBDI needs at least two words per line")
        self.dtype = word_dtype(word_bytes)
        self._signed = np.dtype(_SIGNED_DTYPES[word_bytes])

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode(self, lines: np.ndarray, cell_type: CellType) -> np.ndarray:
        """Encode a batch of cachelines for rows of the given cell type.

        ``lines`` has shape ``(n, words_per_line)``.  Word 0 is the base
        and is stored verbatim (true cells) or complemented (anti
        cells); words 1.. are zigzag-coded deltas from the base.
        """
        lines = self._check(lines)
        out = np.array(lines, order="C")
        delta_code(out[:, 1:], lines[:, :1], np.empty_like(out[:, 1:]))
        if cell_type is CellType.ANTI:
            np.invert(out, out=out)
        return out

    def decode(self, encoded: np.ndarray, cell_type: CellType) -> np.ndarray:
        """Invert :meth:`encode`; exact for every input."""
        encoded = self._check(encoded)
        if cell_type is CellType.ANTI:
            encoded = np.invert(encoded)
        base = encoded[:, :1]
        deltas = zigzag_decode(encoded[:, 1:])
        out = np.empty_like(encoded)
        out[:, :1] = base
        out[:, 1:] = base + deltas.astype(self.dtype, copy=False)
        return out

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def delta_bit_width(self, lines: np.ndarray) -> np.ndarray:
        """Significant bits of the widest true-cell-coded delta per line.

        Returns an ``(n,)`` int array: 0 for lines whose deltas are all
        zero (uniform lines), up to ``word_bytes*8`` for incompressible
        lines.  This is the quantity that determines how many words of
        the line survive as discharged words after the bit-plane stage.
        """
        lines = self._check(lines)
        base = lines[:, :1]
        deltas = (lines[:, 1:] - base).astype(self._signed, copy=False)
        return _bit_length(zigzag_encode(deltas).max(axis=1))

    # ------------------------------------------------------------------
    def _check(self, lines: np.ndarray) -> np.ndarray:
        lines = np.asarray(lines)
        if lines.ndim != 2 or lines.shape[1] != self.words_per_line:
            raise ValueError(
                f"expected shape (n, {self.words_per_line}), got {lines.shape}"
            )
        if lines.dtype != self.dtype:
            raise TypeError(f"expected dtype {self.dtype}, got {lines.dtype}")
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EbdiCodec(word_bytes={self.word_bytes}, "
            f"line_bytes={self.line_bytes})"
        )
