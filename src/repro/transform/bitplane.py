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

The kernel works on whole 64-bit words ("SWAR", SIMD within a
register).  Read the whole line, base word included, as a ``(W, B)`` bit
matrix: W words of B bits, ``W*B = 512``.  Its ``(B, W)`` transpose
rotates the 9-bit flat bit index ``w*B + j`` left by ``log2(W)``; plane
j is then W bits long, and its bit 0 (the base word's bit) is a pad
that is dropped.  The rotation takes three moves on eight ``uint64``
per line: a byte permutation, an 8 x 8 bit transpose inside every
``uint64`` (Hacker's Delight §7-3) and a second byte permutation (the
identity for 8-byte words).  Each byte permutation is one ``transpose``
of a ``(2,)*6`` view of the byte index.  Mask-shift steps then drop
the pad bits, and the eight remaining chunks of ``64 - 64/W`` bits are
spliced back behind the base.  :meth:`BitPlaneTransform.invert` runs
the same steps backwards.  Lines go through in chunks of
:data:`CHUNK_LINES`, held word-major as ``(8, chunk)`` so that the
steps across words are contiguous vector operations.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from repro.transform.ebdi import word_dtype

CHUNK_LINES = 4096
"""Lines per kernel step, and per step of the codec's write path."""

_U64 = np.uint64
_TRANSPOSE8 = tuple((_U64(shift), _U64(mask)) for shift, mask in (
    (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0)))
"""Delta swaps of the 8 x 8 bit transpose inside a ``uint64``: bit
``8*b + t`` trades places with bit ``8*t + b``."""


class BitPlaneTransform:
    """Transpose delta-word bit planes within cachelines.

    Parameters mirror :class:`repro.transform.ebdi.EbdiCodec`: the line
    is ``words_per_line`` words of ``word_bytes`` bytes, and word 0 (the
    EBDI base) is left untouched.  The kernel needs a power-of-two line
    of 8 to 64 words, which 64-byte lines of 2-, 4- or 8-byte words all
    are.  Other geometries construct, but raise ``ValueError`` when a
    line is transposed.
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
        lines = self._check(lines)
        plan = self.plan()
        out = np.empty_like(lines)
        x, tmp = np.empty((2, plan.rows * min(len(lines), CHUNK_LINES)),
                          np.uint64)
        for start in range(0, len(lines), CHUNK_LINES):
            part = slice(start, start + CHUNK_LINES)
            chunk = lines[part].view(np.uint64)
            shape = (plan.rows, len(chunk))
            planes, _ = forward(plan, chunk, x[:chunk.size].reshape(shape),
                                tmp[:chunk.size].reshape(shape))
            out[part].view(np.uint64)[...] = planes.T
        out[:, 0] |= lines[:, 0]
        return out

    def invert(self, lines: np.ndarray) -> np.ndarray:
        """Invert :meth:`apply`."""
        lines = self._check(lines)
        plan = self.plan()
        out = np.empty_like(lines)
        for start in range(0, len(lines), CHUNK_LINES):
            part = slice(start, start + CHUNK_LINES)
            _inverse(plan, lines[part], out[part])
        return out

    def plan(self) -> "_Plan":
        """The kernel's tables for this geometry; ``ValueError`` if the
        kernel cannot transpose its lines."""
        return _plan(self.word_bytes, self.line_bytes)

    # ------------------------------------------------------------------
    def _check(self, lines: np.ndarray) -> np.ndarray:
        lines = np.asarray(lines)
        if lines.ndim != 2 or lines.shape[1] != self.words_per_line:
            raise ValueError(
                f"expected shape (n, {self.words_per_line}), got {lines.shape}"
            )
        if lines.dtype != self.dtype:
            raise TypeError(f"expected dtype {self.dtype}, got {lines.dtype}")
        return np.ascontiguousarray(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitPlaneTransform(word_bytes={self.word_bytes}, "
            f"line_bytes={self.line_bytes})"
        )


class _Plan:
    """Shift, mask and axis tables of the kernel for one geometry.

    Bit ``i`` of a line has index bits ``i0..i{n-1}``: ``i0-i2`` pick
    the bit in its byte, ``i3-i5`` the byte in its ``uint64`` and the
    rest the ``uint64``.  The transpose sends bit ``i`` to
    ``rotl_n(i, s)`` with ``s = log2(W)``.  The 8 x 8 bit transpose
    swaps ``i0-i2`` with ``i3-i5``.  The first byte permutation brings
    the three index bits that must end up lowest to ``i3-i5``; the
    second puts the byte index bits where the rotation wants them.
    """

    def __init__(self, word_bytes: int, line_bytes: int):
        n = (8 * line_bytes).bit_length() - 1
        words = line_bytes // word_bytes
        s = words.bit_length() - 1
        if 8 * line_bytes != 1 << n or not 8 <= words <= 64:
            raise ValueError(
                f"the bit-plane kernel needs a power-of-two line of 8 to "
                f"64 words, got {line_bytes}-byte lines of "
                f"{word_bytes}-byte words"
            )
        self.n = n
        self.rows = rows = line_bytes // 8
        pad_bits = 64 // words  # planes per uint64, one pad bit each
        base_bits = 8 * word_bytes
        # first permutation: the sources of output bits 0-2 go to i3-i5
        # (and the transpose takes them to i0-i2), the rest keep order
        first = {(n - s + m) % n: 3 + m for m in range(3)}
        rest = [p for p in range(3, n) if p not in first]
        first.update(zip(rest, range(6, n)))
        transposed = {a: _swap_low(first.get(a, a)) for a in range(n)}
        second = {transposed[a]: (a + s) % n for a in range(n)}
        self.first = _axes(first, n, "lines")
        self.second = (None if all(second[p] == p for p in second)
                       else _axes(second, n, "words"))
        # pad drop: fields of ``width`` bits hold ``bits`` content bits
        # from bit ``offset``; each step merges neighbouring fields
        steps = []
        width, bits, offset = words, words - 1, 1
        while width < 64:
            steps.append((offset, _fields(2 * width, 0, bits),
                          width + offset - bits, _fields(2 * width, bits, bits)))
            width, bits, offset = 2 * width, 2 * bits, 0
        if offset:
            steps.append((offset, (1 << bits) - 1, 0, 0))
        self.steps = tuple(tuple(_U64(v) for v in step) for step in steps)
        self.chunk_mask = _U64((1 << bits) - 1)
        # splice: chunk q starts at bit ``offsets[q]`` of word q (chunk 0
        # at the base's end) and spills into word q+1
        offsets = pad_bits * (rows - np.arange(rows, dtype=np.uint64))
        self.into_word = offsets[1:, None]  # chunk q << .. into word q
        self.into_next = _U64(64) - offsets[:-1, None]  # chunk q >> .. into q+1
        self.base_shift = _U64(base_bits % 64)
        self.above_base = _U64(~((1 << base_bits) - 1) % (1 << 64))
        self.from_next = _U64(64) - offsets[:, None]  # word q+1 << ..
        self.from_word = offsets[:, None].copy()  # word q >> ..
        self.from_word[0] = 0  # the inverse shifts word 0 past the base first


def _swap_low(position: int) -> int:
    """Where the 8 x 8 bit transpose moves index bit ``position``."""
    return (position + 3) % 6 if position < 6 else position


def _fields(width: int, offset: int, bits: int) -> int:
    """A 64-bit mask of ``bits`` bits at ``offset`` in every
    ``width``-bit field."""
    field = ((1 << bits) - 1) << offset
    return sum(field << k for k in range(0, 64, width))


def _axis(layout: str, position, n: int) -> int:
    """Axis of index bit ``position`` (or ``"line"``) in the
    :func:`_line_bytes` or :func:`_word_bytes` view."""
    if layout == "lines":
        return 0 if position == "line" else n - position
    if position == "line":
        return n - 6
    return n - 1 - position if position >= 6 else n - position


def _axes(perm: dict, n: int, source: str) -> tuple:
    """``transpose`` axes that move byte index bit ``p`` of a ``source``
    view to bit ``perm[p]`` of a word-major view."""
    inverse = {target: p for p, target in perm.items()}
    order = sorted(["line", *range(3, n)], key=lambda p: _axis("words", p, n))
    return tuple(_axis(source, p if p == "line" else inverse[p], n)
                 for p in order)


def _line_bytes(lines: np.ndarray, n: int) -> np.ndarray:
    """``(lines,) + (2,)*(n-3)`` byte index view of ``(lines, words)``."""
    return lines.view(np.uint8).reshape((len(lines),) + (2,) * (n - 3))


def _word_bytes(x: np.ndarray, n: int) -> np.ndarray:
    """The same index bits of a word-major ``(rows, lines)`` uint64
    array: ``(2,)*(n-6) + (lines,) + (2, 2, 2)``."""
    return x.view(np.uint8).reshape((2,) * (n - 6) + (x.shape[1],) + (2,) * 3)


@functools.lru_cache(maxsize=None)
def _plan(word_bytes: int, line_bytes: int) -> _Plan:
    return _Plan(word_bytes, line_bytes)


def _transpose8(x: np.ndarray, tmp: np.ndarray) -> None:
    """Transpose every ``uint64`` of ``x`` as an 8 x 8 bit matrix, in place."""
    for shift, mask in _TRANSPOSE8:
        np.right_shift(x, shift, out=tmp)
        np.bitwise_xor(tmp, x, out=tmp)
        np.bitwise_and(tmp, mask, out=tmp)
        np.bitwise_xor(x, tmp, out=x)
        np.left_shift(tmp, shift, out=tmp)
        np.bitwise_xor(x, tmp, out=x)


def forward(plan: _Plan, lines: np.ndarray, x: np.ndarray,
            tmp: np.ndarray) -> tuple:
    """Transpose the delta bit planes of a chunk, word-major.

    ``lines`` is the chunk line-major as ``(chunk, rows)`` ``uint64``;
    ``x`` and ``tmp`` are ``(rows, chunk)`` ``uint64`` buffers, which
    the kernel overwrites.  Returns ``(planes, spare)``: the buffer
    holding the transposed lines word-major, with the base word
    cleared, and the other one.  ``lines`` is only read.
    """
    n = plan.n
    # rotate the bit index: byte permutation, bit transpose, byte permutation
    np.copyto(_word_bytes(x, n), _line_bytes(lines, n).transpose(plan.first))
    _transpose8(x, tmp)
    if plan.second is not None:
        np.copyto(_word_bytes(tmp, n), _word_bytes(x, n).transpose(plan.second))
        x, tmp = tmp, x
    # drop the pad bit of every plane
    for low_shift, low_mask, high_shift, high_mask in plan.steps:
        np.right_shift(x, high_shift, out=tmp)
        np.bitwise_and(tmp, high_mask, out=tmp)
        np.right_shift(x, low_shift, out=x)
        np.bitwise_and(x, low_mask, out=x)
        np.bitwise_or(x, tmp, out=x)
    # splice the chunks behind the base: word r takes the low part of
    # chunk r and the rest of chunk r-1
    np.left_shift(x[1:], plan.into_word, out=tmp[1:])
    tmp[1:] |= x[:-1] >> plan.into_next
    np.left_shift(x[0], plan.base_shift, out=tmp[0])
    tmp[0] &= plan.above_base
    return tmp, x


def _inverse(plan: _Plan, lines: np.ndarray, out: np.ndarray) -> None:
    n, rows, count = plan.n, plan.rows, len(lines)
    words = lines.view(np.uint64)
    # word-major line words, word 0 shifted past the base, plus a zero
    # row so that chunk q always reads words q and q+1
    stream = np.empty((rows + 1, count), np.uint64)
    np.bitwise_and(words[:, 0], plan.above_base, out=stream[0])
    stream[0] >>= plan.base_shift
    stream[1:rows] = words[:, 1:].T
    stream[rows] = 0
    x, tmp = np.empty((rows, count), np.uint64), np.empty((rows, count), np.uint64)
    np.right_shift(stream[:-1], plan.from_word, out=x)
    np.left_shift(stream[1:], plan.from_next, out=tmp)
    x |= tmp
    x &= plan.chunk_mask
    for low_shift, low_mask, high_shift, high_mask in reversed(plan.steps):
        np.bitwise_and(x, high_mask, out=tmp)
        np.left_shift(tmp, high_shift, out=tmp)
        np.bitwise_and(x, low_mask, out=x)
        np.left_shift(x, low_shift, out=x)
        np.bitwise_or(x, tmp, out=x)
    if plan.second is not None:
        np.copyto(_word_bytes(tmp, n).transpose(plan.second), _word_bytes(x, n))
        x, tmp = tmp, x
    _transpose8(x, tmp)
    np.copyto(_line_bytes(out, n).transpose(plan.first), _word_bytes(x, n))
    out[:, 0] = lines[:, 0]
