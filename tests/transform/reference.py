"""Reference implementations the codec's fast paths are tested against.

``permute`` is the oracle of the SWAR bit-plane kernel, and the kernel
the codec used two replacements before it: unpack every line to bits
and gather them through a ``delta_words * word_bits``-entry index.  ``reference_encode`` and
``reference_decode`` compose the pipeline one stage at a time, one line
at a time: EBDI, the reference bit-plane permutation, the complement of
lines bound for predicted anti-cell rows, then a per-chip scatter whose
word slots are recomputed from the rotation rule, not read from the
mapper's table.
"""

import numpy as np

from repro.transform.celltype import CellType


def build_permutations(delta_words: int, word_bits: int):
    """The plane-major permutation and its inverse.

    With ``np.unpackbits(..., bitorder='little')`` on the little-endian
    byte view, flat position ``w*B + j`` is bit ``j`` of delta word
    ``w``; the forward permutation gathers plane j of all words into
    consecutive positions.
    """
    d, b = delta_words, word_bits
    planes, words = np.meshgrid(np.arange(b), np.arange(d), indexing="ij")
    forward = (words * b + planes).ravel()  # out[j*D + w] = in[w*B + j]
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(d * b)
    return forward, inverse


def permute(bitplane, lines: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Gather every line's delta bits through ``perm`` (base untouched).

    The byte view is sized explicitly so that an empty batch works.
    """
    deltas = np.ascontiguousarray(lines[:, 1:])
    raw = deltas.view(np.uint8).reshape(
        len(lines), bitplane.delta_words * bitplane.word_bytes
    )
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    shuffled = bits[:, perm]
    packed = np.ascontiguousarray(np.packbits(shuffled, axis=1, bitorder="little"))
    out = np.empty_like(lines)
    out[:, 0] = lines[:, 0]
    out[:, 1:] = packed.view(bitplane.dtype).reshape(len(lines), bitplane.delta_words)
    return out


def reference_apply(bitplane, lines: np.ndarray) -> np.ndarray:
    forward, _ = build_permutations(bitplane.delta_words, bitplane.word_bits)
    return permute(bitplane, lines, forward)


def reference_invert(bitplane, lines: np.ndarray) -> np.ndarray:
    _, inverse = build_permutations(bitplane.delta_words, bitplane.word_bits)
    return permute(bitplane, lines, inverse)


def words_of_chip(codec, chip: int, row: int) -> np.ndarray:
    """Word positions ``chip`` stores for ``row`` (ascending)."""
    rotation = codec.rotation
    words = np.arange(rotation.words_per_line)
    shift = row % rotation.num_chips if rotation.rotate else 0
    return words[(words + shift) % rotation.num_chips == chip]


def _complemented(codec, row: int) -> bool:
    return (codec.stages.celltype_aware
            and codec.predictor.predict(row) is CellType.ANTI)


def reference_transform(codec, line: np.ndarray, row: int) -> np.ndarray:
    """Stages 1-3 of the write path for one ``(words,)`` line."""
    out = line[None, :]
    if codec.stages.ebdi:
        out = codec.ebdi.encode(out, CellType.TRUE)
    if codec.stages.bitplane:
        out = reference_apply(codec.bitplane, out)
    if _complemented(codec, row):
        out = np.invert(out)
    return out[0]


def reference_encode(codec, lines: np.ndarray, rows) -> np.ndarray:
    """Encode ``(n, words)`` lines bound for ``rows`` (one per line);
    returns ``(num_chips, n, words_per_chip)``."""
    rotation = codec.rotation
    out = np.empty((rotation.num_chips, len(lines), rotation.words_per_chip),
                   dtype=codec.dtype)
    for i, (line, row) in enumerate(zip(lines, rows)):
        stored = reference_transform(codec, line, int(row))
        for chip in range(rotation.num_chips):
            out[chip, i] = stored[words_of_chip(codec, chip, int(row))]
    return out


def reference_decode(codec, chip_data: np.ndarray, rows) -> np.ndarray:
    """Invert :func:`reference_encode`."""
    rotation = codec.rotation
    out = np.empty((chip_data.shape[1], rotation.words_per_line), dtype=codec.dtype)
    for i, row in enumerate(rows):
        line = np.empty(rotation.words_per_line, dtype=codec.dtype)
        for chip in range(rotation.num_chips):
            line[words_of_chip(codec, chip, int(row))] = chip_data[chip, i]
        line = line[None, :]
        if _complemented(codec, int(row)):
            line = np.invert(line)
        if codec.stages.bitplane:
            line = reference_invert(codec.bitplane, line)
        if codec.stages.ebdi:
            line = codec.ebdi.decode(line, CellType.TRUE)
        out[i] = line[0]
    return out
