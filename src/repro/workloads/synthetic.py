"""Synthetic cacheline content classes (workload substrate).

The paper's evaluation runs SPEC CPU2006 / NPB / TPC-H under an
execution-driven simulator and transforms the *actual* memory images.
Those images are not redistributable, so this module provides content
classes whose value statistics span what real applications exhibit;
:mod:`repro.workloads.benchmarks` mixes them into per-benchmark
profiles calibrated against the paper's Fig. 6 (zero fractions) and
Fig. 14 (per-benchmark refresh reduction).

Each class generates batches of cachelines — shape ``(n, words)`` of
``uint64`` — with two characteristic properties:

* the *raw zero-byte fraction* (what Fig. 6 measures), and
* the *post-EBDI delta width*, which determines how many words of the
  transformed line are discharged and hence how many refresh groups a
  region of this class can skip (``skippable_groups`` of 8).

====================  ===========================  ==========  ========
class                 models                        zero bytes  skip g/8
====================  ===========================  ==========  ========
zero                  untouched/zeroed regions      8/8         8
uniform32             memset patterns, enum fills   4/8         7
smallint8             byte-valued arrays, flags     ~7/8        6
smallint16            short ints, indices           ~6/8        5
pointer               heap pointer arrays           2/8         5
int32                 32-bit integer arrays         ~4/8        3
medium                counters w/ 24-bit locality   0           4
int48                 48-bit packed values          ~2/8        1
wide                  hashes w/ 40-bit locality     0           2
float64               FP arrays (shared exponent)   0           1
text                  ASCII buffers                 0           0
padded                alignment-padded structs      ~6.5/8      0
random                compressed/encrypted data     ~0          0
====================  ===========================  ==========  ========
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Tuple

import numpy as np

WORDS_PER_LINE = 8
_U64 = np.uint64


def _lines(n: int) -> tuple:
    return (n, WORDS_PER_LINE)


def zero_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """Fully zero lines (idle or never-touched regions)."""
    return np.zeros(_lines(n), dtype=_U64)


def uniform32_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """One random 32-bit value replicated across the line (fill patterns)."""
    value = rng.integers(1, 2**32, size=(n, 1), dtype=np.uint64)
    return np.broadcast_to(value, _lines(n)).copy()


def smallint8_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """Independent byte-sized values per word (flag/char arrays)."""
    return rng.integers(0, 2**8, size=_lines(n), dtype=np.uint64)


def smallint16_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """Independent 16-bit values per word (short ints, small indices)."""
    return rng.integers(0, 2**16, size=_lines(n), dtype=np.uint64)


def pointer_lines(n: int, rng: np.random.Generator,
                  region_base: int = 0x00007F0000000000) -> np.ndarray:
    """Pointer arrays: shared 48-bit user-space base, 16-bit structure offsets."""
    anchor = region_base + rng.integers(0, 2**40, size=(n, 1), dtype=np.uint64)
    offsets = rng.integers(0, 2**15, size=_lines(n), dtype=np.uint64)
    return anchor + offsets


def int32_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """Independent 32-bit values per word (int arrays, RGBA, IDs)."""
    return rng.integers(0, 2**32, size=_lines(n), dtype=np.uint64)


def medium_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random 64-bit base with 24-bit intra-line locality."""
    base = rng.integers(0, 2**63, size=(n, 1), dtype=np.uint64)
    return base + rng.integers(0, 2**23, size=_lines(n), dtype=np.uint64)


def int48_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """Independent 48-bit packed values (timestamps, packed structs)."""
    return rng.integers(0, 2**48, size=_lines(n), dtype=np.uint64)


def wide_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random base with 40-bit locality (sparse hashes, large counters)."""
    base = rng.integers(0, 2**63, size=(n, 1), dtype=np.uint64)
    return base + rng.integers(0, 2**39, size=_lines(n), dtype=np.uint64)


def float64_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """Double-precision arrays: shared sign/exponent, random mantissas."""
    exponent = rng.integers(1000, 1030, size=(n, 1), dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, size=_lines(n), dtype=np.uint64)
    return exponent | mantissa


def text_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """ASCII text buffers: every byte in [0x20, 0x7F)."""
    raw = rng.integers(0x20, 0x7F, size=(n, WORDS_PER_LINE, 8), dtype=np.uint8)
    return np.ascontiguousarray(raw).reshape(n, -1).view("<u8").reshape(_lines(n))


def padded_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """Padding-heavy structs: mostly-zero bytes at irregular positions.

    Each word carries one or two random non-zero bytes at random byte
    positions — think sparsely filled, alignment-padded C structs.  The
    byte-level zero fraction is high (~80 %, a big contributor to
    Fig. 6's 43 % average) but the deltas are full-width, so EBDI cannot
    recover discharged words from this data.
    """
    out = np.zeros((n, WORDS_PER_LINE, 8), dtype=np.uint8)
    flat = out.reshape(-1, 8)
    positions = rng.integers(0, 8, size=len(flat))
    flat[np.arange(len(flat)), positions] = rng.integers(
        1, 256, size=len(flat), dtype=np.uint8
    )
    second = rng.random(len(flat)) < 0.5
    positions2 = rng.integers(0, 8, size=len(flat))
    rows = np.flatnonzero(second)
    flat[rows, positions2[rows]] = rng.integers(
        1, 256, size=len(rows), dtype=np.uint8
    )
    return np.ascontiguousarray(out).reshape(n, -1).view("<u8").reshape(_lines(n))


def random_lines(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random bits (compressed or encrypted payloads)."""
    return rng.integers(0, 2**64, size=_lines(n), dtype=np.uint64)


LineGenerator = Callable[[int, np.random.Generator], np.ndarray]

LINE_CLASSES: Dict[str, LineGenerator] = {
    "zero": zero_lines,
    "uniform32": uniform32_lines,
    "smallint8": smallint8_lines,
    "smallint16": smallint16_lines,
    "pointer": pointer_lines,
    "int32": int32_lines,
    "medium": medium_lines,
    "int48": int48_lines,
    "wide": wide_lines,
    "float64": float64_lines,
    "text": text_lines,
    "padded": padded_lines,
    "random": random_lines,
}
"""All content classes keyed by name."""

SKIPPABLE_GROUPS: Dict[str, int] = {
    "zero": 8,
    "uniform32": 7,
    "smallint8": 6,
    "smallint16": 5,
    "pointer": 5,
    "int32": 3,
    "medium": 4,
    "int48": 1,
    "wide": 2,
    "float64": 1,
    "text": 0,
    "padded": 0,
    "random": 0,
}
"""Refresh groups (of 8 word positions) a pure region of the class can
skip after full transformation — the analytic model behind profile
calibration, verified against the simulator by the test suite."""


def generate_lines(class_name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Generate ``n`` cachelines of a named content class."""
    try:
        generator = LINE_CLASSES[class_name]
    except KeyError:
        raise ValueError(
            f"unknown content class {class_name!r}; "
            f"expected one of {sorted(LINE_CLASSES)}"
        ) from None
    return generator(n, rng)


CLASS_NAMES: Tuple[str, ...] = tuple(LINE_CLASSES)
"""The content classes in a fixed order: a class id indexes this tuple."""

CLASS_IDS: Dict[str, int] = {name: i for i, name in enumerate(CLASS_NAMES)}

# How each class that :func:`draw_lines_in_order` rebuilds draws one
# line: an optional 64-bit anchor draw, then eight word draws.
# ``integers(0, 2**k)`` is one ``bits``-wide draw shifted right by
# ``bits - k``.   anchor shift, anchor base, word bits, word shift
_FIXED_DRAWS = {
    "zero": (None, 0, 0, 0),
    "smallint8": (None, 0, 32, 24),
    "smallint16": (None, 0, 32, 16),
    "pointer": (24, 0x00007F0000000000, 32, 17),
    "int32": (None, 0, 32, 0),
    "medium": (1, 0, 32, 9),
    "int48": (None, 0, 64, 16),
    "wide": (1, 0, 64, 25),
    "random": (None, 0, 64, 0),
}
_PADDED = CLASS_IDS["padded"]
_HAS_ANCHOR = np.zeros(len(CLASS_NAMES), dtype=bool)
_ANCHOR_SHIFT = np.zeros(len(CLASS_NAMES), dtype=_U64)
_ANCHOR_BASE = np.zeros(len(CLASS_NAMES), dtype=_U64)
_WORD_BITS = np.zeros(len(CLASS_NAMES), dtype=np.int64)
_WORD_SHIFT = np.zeros(len(CLASS_NAMES), dtype=_U64)
# raw outputs a line consumes; padded's is found by the scan, and -1
# marks the classes that are drawn line by line
_FRESH = np.full(len(CLASS_NAMES), -1, dtype=np.int64)
_FRESH[_PADDED] = 0
for _name, (_shift, _base, _bits, _word_shift) in _FIXED_DRAWS.items():
    _id = CLASS_IDS[_name]
    _HAS_ANCHOR[_id] = _shift is not None
    _ANCHOR_SHIFT[_id] = _shift or 0
    _ANCHOR_BASE[_id] = _base
    _WORD_BITS[_id] = _bits
    _WORD_SHIFT[_id] = _word_shift
    _FRESH[_id] = (_shift is not None) + 8 * _bits // 64

BATCHED: np.ndarray = _FRESH >= 0
"""Per class id: whether :func:`draw_lines_in_order` draws its lines.
``text``, ``uniform32`` and ``float64`` make bounded draws that can
reject, so they stay with :func:`generate_lines`."""

# A padded line consumes at most 18 raw outputs unless one of its byte
# draws meets a zero byte: draw 20 ahead per line and read each line's
# own 20 first, retrying with more when that was not enough.
_PADDED_RESERVE = 20
_ONES = 0x0101010101010101
_HIGHS = 0x8080808080808080


def _nonzero_bytes(stream: list, i: int, count: int) -> Tuple[list, int]:
    """``integers(1, 256, count, dtype=uint8)`` from the 32-bit draws
    ``stream[i:]``: each draw yields its bytes low byte first and zero
    bytes are skipped.  Returns the bytes and the number of draws."""
    if count <= 4:
        v, n = stream[i], 1
    else:
        v, n = stream[i] | stream[i + 1] << 32, 2
    if not (v - _ONES) & ~v & _HIGHS:  # no zero byte
        return [v >> s & 255 for s in range(0, count << 3, 8)], n
    found: list = []
    n = i
    while len(found) < count:
        x = stream[n]
        n += 1
        found += [b for b in (x & 255, x >> 8 & 255, x >> 16 & 255, x >> 24)
                  if b]
    return found[:count], n - i


def _padded_line(stream: list, held: int) -> Tuple[list, int, int]:
    """One ``padded`` line from the 32-bit stream ``stream``.

    ``stream`` starts with the half the generator holds when ``held``,
    then reads the halves of consecutive raw outputs, low half first.
    The line draws 8 positions and 8 bytes (32-bit draws), 8 floats
    (64-bit: ``random() < 0.5`` is a raw output below 2**63), 8 more
    positions and one byte per float below one half.  Returns the 8
    words, the raw outputs used and the buffer flag left behind.
    """
    first, n1 = _nonzero_bytes(stream, 8, 8)
    used1 = 8 + n1 - held  # halves of new raw outputs in the first group
    floats = held + 2 * ((used1 + 1) >> 1)
    rows = [w for w, high in enumerate(stream[floats + 1:floats + 16:2])
            if high < 0x80000000]
    # the second group starts with the half the first one left held
    second = stream[floats + 16 - (used1 & 1):]
    if used1 & 1:
        second[0] = stream[8 + n1]
    words = [b << (x >> 29 << 3) for b, x in zip(first, stream)]
    n2 = 0
    if rows:
        extra, n2 = _nonzero_bytes(second, 8, len(rows))
        for w, b in zip(rows, extra):
            shift = second[w] >> 29 << 3
            words[w] = words[w] & ~(255 << shift) | b << shift
    used2 = 8 + n2 - (used1 & 1)
    return words, (used1 + 1 >> 1) + 8 + (used2 + 1 >> 1), used2 & 1


def _halves(raw: np.ndarray, held_half: int) -> np.ndarray:
    """``held_half``, then the 32-bit halves of ``raw``, low half first:
    index ``2 * k`` is the half held after raw output ``k - 1``."""
    halves = np.empty(2 * len(raw) + 1, dtype=np.uint32)
    halves[0] = held_half
    halves[1:] = raw.astype("<u8", copy=False).view("<u4")
    return halves


def draw_lines_in_order(class_ids, rng: np.random.Generator) -> np.ndarray:
    """Lines of the given classes, as one ``generate_lines`` call per
    line in order would draw them, from one block of raw output.

    Returns the ``(n, 8)`` uint64 lines that stacking
    ``generate_lines(CLASS_NAMES[c], 1, rng)[0]`` for each ``c`` gives,
    and leaves ``rng.bit_generator.state`` as those calls leave it.
    Every class with ``BATCHED`` set is accepted, in any mix.
    ``rng`` must run on ``PCG64`` (``default_rng``).

    The rebuild rests on these points of NumPy's ``Generator``
    (``tests/workloads/test_line_draws.py`` checks them against the
    per-line calls):

    * A 32-bit draw returns the high half of an earlier 64-bit output
      that the generator holds, if it holds one (``has_uint32``).
      Otherwise it draws 64 bits, returns the low half and holds the
      high half.
    * 64-bit draws, ``random()`` and ``random_raw`` bypass that buffer.
    * Once the held half is used, NumPy leaves ``uinteger`` holding it:
      this function writes it back the same way.
    * ``integers(..., dtype=uint64 or int64)`` makes one 32-bit draw per
      value when the range is at most 2**32, and one 64-bit draw
      otherwise.  ``integers(0, 2**k)`` returns ``x >> (bits - k)`` and
      never rejects (Lemire's multiply-shift).
    * ``integers(1, 256, dtype=uint8)`` reads bytes low byte first from
      32-bit draws held in a buffer local to the call, and skips zero
      bytes.  A draw with zero size consumes nothing.

    Fixed classes are gathered in one vectorised pass.  ``padded``
    consumes a data-dependent number of outputs, so its lines are read
    in plain Python from outputs drawn ahead; the generator is then
    rewound over the outputs no line used.
    """
    ids = np.asarray(class_ids, dtype=np.intp)
    n = len(ids)
    if n == 0:
        return np.zeros(_lines(0), dtype=_U64)
    fresh = _FRESH[ids]
    if (fresh < 0).any():
        raise ValueError(
            "draw_lines_in_order draws only "
            f"{[name for name, ok in zip(CLASS_NAMES, BATCHED) if ok]}"
        )
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError("draw_lines_in_order needs a PCG64 generator")
    state = bitgen.state
    held0, held_half0 = state["has_uint32"], state["uinteger"]
    bits = _WORD_BITS[ids]
    padded = np.flatnonzero(ids == _PADDED)
    raw = bitgen.random_raw(int(fresh.sum()) + _PADDED_RESERVE * len(padded))
    halves = _halves(raw, held_half0)
    out = np.zeros(_lines(n), dtype=_U64)
    flips = np.zeros(n, dtype=np.int64)
    draws32 = (bits == 32) | (ids == _PADDED)
    if len(padded):
        # fixed lines shift a padded line's start by their fixed counts
        # and leave the buffer flag alone (they make 0 or 8 32-bit draws)
        fixed_before = np.concatenate(([0], np.cumsum(fresh))).tolist()
        last32 = np.maximum.accumulate(
            np.where(draws32, np.arange(n), -1)).tolist()
        scanned = 0  # outputs the padded lines so far used
        held = held0
        words = array("Q")
        for p in padded.tolist():
            offset = fixed_before[p] + scanned
            # 1 + the raw output whose high half is held (0: the entry one)
            holder = fixed_before[last32[p - 1] + 1] + scanned if (
                p and last32[p - 1] >= 0) else 0
            window = _PADDED_RESERVE
            while True:
                if offset + window > len(raw):
                    raw = np.concatenate(
                        (raw, bitgen.random_raw(offset + window - len(raw))))
                    halves = _halves(raw, held_half0)
                lo = 2 * offset + 1
                stream = halves[lo:lo + 2 * window].tolist()
                if held:
                    stream.insert(0, int(halves[2 * holder]))
                try:
                    line, took, after = _padded_line(stream, held)
                except IndexError:
                    took = window + 1
                if took <= window:
                    break
                window *= 4
            words.extend(line)
            fresh[p] = took
            flips[p] = held ^ after
            held = after
            scanned += took
        out[padded] = np.frombuffer(words, dtype=_U64).reshape(-1, 8)
    # each line's first raw output, buffer flag and held half on entry
    end = np.cumsum(fresh)
    start = end - fresh
    used = int(end[-1])
    if used > len(raw):  # padded lines used more than their reserve
        raw = np.concatenate((raw, bitgen.random_raw(used - len(raw))))
        halves = _halves(raw, held_half0)
    held_at = held0 ^ ((np.cumsum(flips) - flips) & 1)
    holder_after = np.maximum.accumulate(np.where(draws32, end, 0))
    holder_at = np.concatenate(([0], holder_after[:-1]))

    columns = np.arange(8)
    first = start + _HAS_ANCHOR[ids]
    wide = np.flatnonzero(bits == 64)
    if len(wide):
        out[wide] = (raw[first[wide, None] + columns]
                     >> _WORD_SHIFT[ids[wide], None])
    narrow = np.flatnonzero(bits == 32)
    if len(narrow):
        at = 2 * first[narrow, None] + 1 + columns - held_at[narrow, None]
        at[:, 0] = np.where(held_at[narrow] == 1, 2 * holder_at[narrow],
                            at[:, 0])
        out[narrow] = (halves[at].astype(_U64)
                       >> _WORD_SHIFT[ids[narrow], None])
    anchored = np.flatnonzero(_HAS_ANCHOR[ids])
    if len(anchored):
        out[anchored] += ((raw[start[anchored]]
                           >> _ANCHOR_SHIFT[ids[anchored]])
                          + _ANCHOR_BASE[ids[anchored]])[:, None]

    held_end = held0 ^ int(flips.sum() & 1)
    held_half = int(halves[2 * int(holder_after[-1])])
    if used != len(raw):
        bitgen.advance(used - len(raw))  # rewinds; clears the buffer too
    if used != len(raw) or (held_end, held_half) != (held0, held_half0):
        state = bitgen.state
        state["has_uint32"] = held_end
        state["uinteger"] = held_half
        bitgen.state = state
    return out


def zero_byte_fraction(lines: np.ndarray) -> float:
    """Fraction of zero bytes (Fig. 6's 1-byte granularity metric)."""
    raw = np.ascontiguousarray(lines).view(np.uint8)
    return float((raw == 0).mean())


def zero_block_fraction(lines: np.ndarray, block_bytes: int = 1024) -> float:
    """Fraction of fully-zero aligned blocks (Fig. 6's 1 KB metric)."""
    raw = np.ascontiguousarray(lines).view(np.uint8).reshape(-1)
    usable = (raw.size // block_bytes) * block_bytes
    if usable == 0:
        raise ValueError("content smaller than one block")
    blocks = raw[:usable].reshape(-1, block_bytes)
    return float((blocks == 0).all(axis=1).mean())
