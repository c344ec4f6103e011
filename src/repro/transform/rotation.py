"""Data-rotation stage of ZERO-REFRESH (paper Sec. V-D, Figs. 9b and 13).

A rank spreads each cacheline over its chips.  Two re-mappings happen in
this stage:

1. **Byte-to-chip remapping (Fig. 13).**  The stock DDRx burst stripes
   each 8-byte beat one byte per chip, which would scatter the base and
   delta words of a transformed line over every chip.  ZERO-REFRESH
   instead re-gathers whole words onto single chips, so a chip stores
   either a base word, a delta word, or a fully-discharged word.  In
   this model that remapping is embodied directly: the unit of
   chip assignment is the EBDI word.

2. **Rotation (Fig. 9b).**  Word ``w`` of every cacheline in logical row
   ``R`` is assigned to chip ``(R + w) mod num_chips``.  Thus a chip's
   physical row ``R`` holds a *single word position* — chip ``j`` stores
   word ``(j - R) mod num_chips`` of each line in the row.  Combined
   with the staggered per-chip refresh counters of
   :mod:`repro.dram.refresh` (Fig. 8), every refresh group then covers
   one word position of many cachelines: all base words refresh
   together, all delta words together, and — crucially — all discharged
   words together, making those groups skippable.

When a line has more words than the rank has chips (e.g. 4-byte EBDI
words on an 8-chip rank give 16 words), each chip receives
``words_per_line / num_chips`` words per line; the rotation acts on word
indices modulo the chip count, preserving the homogeneity property per
chip row.

A row's assignment depends only on its rotation class ``R mod
num_chips``, so :class:`RotationMapper` builds every class's
word-slot table once.  Dealing words out to the chips is one
``np.take`` of whole blocks of word-major lines through it
(:meth:`RotationMapper.deal`), which both :meth:`RotationMapper.scatter`
and the codec's write path use; gather is one indexing step through
the table, for one row or for a vector of rows.
"""

from __future__ import annotations

import numpy as np

from repro.transform.ebdi import word_dtype


class RotationMapper:
    """Maps transformed cachelines onto the chips of a rank and back.

    Parameters
    ----------
    num_chips:
        Data chips per rank (8 in the paper's configuration).
    word_bytes, line_bytes:
        EBDI word and cacheline geometry; ``words_per_line`` must be a
        multiple of ``num_chips`` (or equal to it).
    rotate:
        Set ``False`` to disable the rotation (ablation): every row then
        uses the identity word-to-chip assignment and refresh groups mix
        base, delta and discharged words.
    """

    def __init__(
        self,
        num_chips: int = 8,
        word_bytes: int = 8,
        line_bytes: int = 64,
        rotate: bool = True,
    ):
        if num_chips < 1:
            raise ValueError("num_chips must be positive")
        words_per_line = line_bytes // word_bytes
        if line_bytes % word_bytes != 0:
            raise ValueError(
                f"line size {line_bytes} is not a multiple of word size {word_bytes}"
            )
        if words_per_line % num_chips != 0:
            raise ValueError(
                f"{words_per_line} words per line cannot be spread evenly "
                f"over {num_chips} chips"
            )
        self.num_chips = num_chips
        self.word_bytes = word_bytes
        self.line_bytes = line_bytes
        self.words_per_line = words_per_line
        self.words_per_chip = words_per_line // num_chips
        self.rotate = rotate
        self.dtype = word_dtype(word_bytes)
        # slot_table[r, chip]: the word positions (ascending) that ``chip``
        # stores for rows of rotation class r; without rotation every
        # class holds the identity assignment.  Read-only, because
        # words_of_chip hands out views of it.
        words = np.arange(words_per_line)
        shifts = np.arange(num_chips) if rotate else np.zeros(num_chips, int)
        chip_of = (words[None, :] + shifts[:, None]) % num_chips
        self.slot_table = np.argsort(chip_of, axis=1, kind="stable").reshape(
            num_chips, num_chips, self.words_per_chip
        )
        self.slot_table.setflags(write=False)

    # ------------------------------------------------------------------
    def rotation_amount(self, row_index: int) -> int:
        """Chip rotation applied to word positions of logical row ``row_index``."""
        return row_index % self.num_chips if self.rotate else 0

    def chip_of_word(self, word: int, row_index: int) -> int:
        """Chip that stores word position ``word`` of lines in ``row_index``."""
        return (word + self.rotation_amount(row_index)) % self.num_chips

    def words_of_chip(self, chip: int, row_index: int) -> np.ndarray:
        """Word positions that chip ``chip`` stores for ``row_index``
        (ascending; a read-only view of :attr:`slot_table`)."""
        return self.slot_table[row_index % self.num_chips, chip]

    # ------------------------------------------------------------------
    def scatter(self, lines: np.ndarray, rows) -> np.ndarray:
        """Distribute lines onto chips.

        ``lines`` has shape ``(n_lines, words_per_line)`` and ``rows``
        is the logical row of every line: one int, or an ``(n_lines,)``
        vector.  The result has shape ``(num_chips, n_lines,
        words_per_chip)`` where ``result[j]`` is the data chip ``j``
        stores, in (line, word-slot) order.
        """
        lines = self._check(lines)
        n_lines = len(lines)
        self._slots(rows, n_lines)  # validates the row vector
        out = np.empty((self.num_chips, n_lines, self.words_per_chip),
                       dtype=self.dtype)
        self.deal(np.ascontiguousarray(lines.T)[:, :, None], rows,
                  out[..., None], chips_first=True)
        return out

    def deal(self, words: np.ndarray, rows, out: np.ndarray,
             chips_first: bool = False) -> None:
        """Deal word-major lines out to the chips, into ``out``.

        ``words`` is C-contiguous ``(words_per_line, groups, size)``:
        word ``w`` of line ``i`` of group ``g`` is ``words[w, g, i]``,
        and all lines of a group share a row.  ``rows`` has one row per
        group (or is one int for all of them).  ``out`` is a writable
        ``(groups, num_chips, words_per_chip, size)`` array, or
        ``(num_chips, groups, words_per_chip, size)`` with
        ``chips_first``; slot ``s`` of ``chip`` receives word
        ``slot_table[row % num_chips, chip, s]`` of the group's lines.
        It is one ``np.take`` of ``size``-word blocks, through an index
        of one entry per (group, chip, slot), into ``out`` as laid out.
        """
        groups = words.shape[1]
        classes = np.asarray(rows) % self.num_chips
        blocks = (self.slot_table.take(classes, axis=0, mode="clip") * groups
                  + np.arange(groups)[:, None, None])
        if chips_first:
            blocks = blocks.transpose(1, 0, 2)
        np.take(words.reshape(-1, words.shape[2]), blocks, axis=0, out=out,
                mode="clip")

    def gather(self, chip_data: np.ndarray, rows) -> np.ndarray:
        """Invert :meth:`scatter`: rebuild lines from per-chip data."""
        chip_data = np.asarray(chip_data)
        expected = (self.num_chips, chip_data.shape[1], self.words_per_chip)
        if chip_data.ndim != 3 or chip_data.shape != expected:
            raise ValueError(
                f"expected chip data of shape {expected}, got {chip_data.shape}"
            )
        n_lines = chip_data.shape[1]
        lines = np.empty((n_lines, self.words_per_line), dtype=self.dtype)
        lines[np.arange(n_lines)[:, None, None], self._slots(rows, n_lines)] = (
            chip_data.transpose(1, 0, 2)
        )
        return lines

    def _slots(self, rows, n_lines: int) -> np.ndarray:
        """Slot tables for ``rows``: ``(chips, words_per_chip)`` for one
        row, ``(n_lines, chips, words_per_chip)`` for a row vector."""
        rows = np.asarray(rows)
        if rows.ndim and rows.shape != (n_lines,):
            raise ValueError(
                f"expected one row or {n_lines} rows, got shape {rows.shape}"
            )
        return self.slot_table[rows % self.num_chips]

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
            f"RotationMapper(num_chips={self.num_chips}, "
            f"word_bytes={self.word_bytes}, line_bytes={self.line_bytes}, "
            f"rotate={self.rotate})"
        )
