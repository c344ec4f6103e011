"""Memory controller front end: transformed reads and writes.

:class:`MemoryController` is what the cache hierarchy and the OS model
talk to.  Every write runs the value-transformation pipeline before the
bits reach the device; every read runs the inverse, so the rest of the
system only ever sees original values.  The controller also keeps the
operation counts the energy model needs:

* ``ebdi_ops`` — one per line read *and* write (the EBDI module sits on
  both paths, paper Sec. VI-B);
* line read/write counts for DRAM activity power.

Lines go to the device through one batch path each way
(:meth:`~MemoryController.write_lines` and
:meth:`~MemoryController.read_lines`).  The OS model and workload
population work in pages: :meth:`~MemoryController.populate_pages` is
the only page write (:meth:`~MemoryController.zero_pages` is one call
of it), and :meth:`~MemoryController.read_page` reads a page's lines.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.controller.mapping import AddressMapper
from repro.dram.device import DramDevice, LineWrites
from repro.obs.probes import NULL_PROBES
from repro.transform.bitplane import CHUNK_LINES
from repro.transform.codec import ValueTransformCodec


class MemoryController:
    """Front end combining the codec, the mapper and the device."""

    def __init__(self, device: DramDevice, codec: ValueTransformCodec,
                 mapper: Optional[AddressMapper] = None, probes=None):
        geometry = device.geometry
        if codec.line_bytes != geometry.line_bytes:
            raise ValueError("codec and geometry disagree on line size")
        if codec.num_chips != geometry.num_chips:
            raise ValueError("codec and geometry disagree on chip count")
        self.device = device
        self.codec = codec
        self.geometry = geometry
        self.mapper = mapper or AddressMapper(geometry)
        self.probes = probes if probes is not None else NULL_PROBES
        self.ebdi_ops = 0
        self.line_reads = 0
        self.line_writes = 0

    # ------------------------------------------------------------------
    # line interface (cacheline granularity)
    # ------------------------------------------------------------------
    def read_line(self, line_addr: int, time_s: float = 0.0) -> np.ndarray:
        """Fetch and untransform one cacheline."""
        return self.read_lines(np.array([line_addr]), time_s)[0]

    def read_lines(self, line_addrs: np.ndarray, time_s: float = 0.0) -> np.ndarray:
        """Fetch and untransform a batch of cachelines, all at ``time_s``;
        returns ``(n, words_per_line)``.  One codec pass decodes them."""
        banks, rows, lines_in_row = self._locate(line_addrs)
        if not len(banks):
            return np.empty((0, self.geometry.words_per_line),
                            dtype=self.codec.dtype)
        chip_words = self.device.read_lines(banks, rows, lines_in_row, time_s)
        self.ebdi_ops += len(banks)
        self.line_reads += len(banks)
        self.probes.count("ctrl.ebdi_ops", len(banks))
        self.probes.count("ctrl.line_reads", len(banks))
        return self.codec.decode_row(chip_words, rows)

    def write_lines(self, line_addrs: np.ndarray, lines: np.ndarray,
                    time_s: float = 0.0) -> None:
        """Transform and store a batch of cachelines, all at ``time_s``.

        ``line_addrs`` is ``(n,)`` and ``lines`` is ``(n, words)``.  The
        batch is encoded in one pass (:meth:`encode_lines`) and stored
        in one bulk device write; the last write to a line wins.
        """
        self.device.write_lines(self.encode_lines(line_addrs, lines, time_s),
                                time_s)

    def encode_lines(self, line_addrs: np.ndarray, lines: np.ndarray,
                     time_s=0.0) -> LineWrites:
        """Transform cachelines for the array without storing them.

        ``time_s`` is the write time of every line, or one per line.
        Each run of lines with equal times is one write batch: it counts
        its EBDI ops and line writes, makes one
        ``codec.encoded_zero_fraction`` observation and, on a checking
        bus, one round-trip check of its first line.  All lines go
        through one :meth:`ValueTransformCodec.encode_row` call, the
        zero fractions through one array division (exact: both operands
        are small integers) and the round-trip checks through one
        ``decode_row`` call; only a checking or tracing bus walks the
        batches one by one.
        """
        lines = np.asarray(lines)
        banks, rows, lines_in_row = self._locate(line_addrs)
        chip_words = self.codec.encode_row(lines, rows)
        n = len(banks)
        writes = LineWrites(banks, rows, lines_in_row, chip_words)
        if not n:
            return writes
        self.ebdi_ops += n
        self.line_writes += n
        self.probes.count("ctrl.ebdi_ops", n)
        self.probes.count("ctrl.line_writes", n)
        if not self.probes.enabled:
            return writes
        times = np.broadcast_to(np.asarray(time_s, dtype=float), (n,))
        starts = np.flatnonzero(np.r_[True, times[1:] != times[:-1]])
        sizes = np.diff(np.r_[starts, n])
        # zero fraction after value transformation, counted before the
        # celltype complement (which flips anti rows to all-ones): the
        # quantity Sec. V's discharged-row detection feeds on.  Rotation
        # only moves a line's words, so the chip words count the same.
        zero = self.codec.stored_zero(rows)[None, :, None]
        zeros = np.add.reduceat((chip_words == zero).sum(axis=(0, 2)), starts)
        fractions = zeros / (sizes * lines.shape[1])
        self.probes.observe_many("codec.encoded_zero_fraction", fractions,
                                 sums=fractions.tolist())
        if not (self.probes.checking or self.probes.tracing):
            return writes
        if self.probes.checking:
            # decode every batch's first line from the words it stores
            decoded = self.codec.decode_row(chip_words[:, starts], rows[starts])
            round_trips = (decoded == lines[starts]).all(axis=1)
        for k, (start, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
            t = float(times[start])
            if self.probes.checking:
                self.probes.check("codec.round_trip", bool(round_trips[k]),
                                  row=int(rows[start]), t=round(t, 6))
            if self.probes.tracing:
                self.probes.event("ctrl.write_batch", n=size, t=t)
        return writes

    def _locate(self, line_addrs):
        """``(banks, rows, lines_in_row)`` of line addresses, as 1-D arrays."""
        return tuple(np.atleast_1d(part) for part in
                     self.mapper.line_location(np.asarray(line_addrs)))

    # ------------------------------------------------------------------
    # page interface (the OS model and workload population)
    # ------------------------------------------------------------------
    def populate_pages(self, pages: np.ndarray, page_lines: np.ndarray,
                       time_s: float = 0.0, notify: bool = False) -> None:
        """Transform and store whole pages: the only page write.

        ``page_lines`` must have shape ``(n_pages, lines_per_page,
        words_per_line)``.  With ``notify=True`` this is a write like
        any other: observers see it and it counts its EBDI ops and line
        writes.  With ``notify=False`` (default) the fill models content
        that existed before measurement starts: access bits stay clear,
        the first refresh window derives status from the rows' dirty
        flags, and no EBDI ops are charged.

        The pages' lines are encoded and stored in input order,
        :data:`CHUNK_LINES` lines at a time: one ``encode_rows`` and one
        rank-wide ``populate_rows`` call per chunk, which writes only
        the given pages' lines (with 8 KB rows, a page's half of its
        row).  What population holds above its input is one chunk's
        encoded lines.
        """
        pages = np.ravel(pages)
        geometry = self.geometry
        shape = (len(pages), geometry.lines_per_page, geometry.words_per_line)
        page_lines = np.asarray(page_lines)
        if page_lines.shape != shape:
            raise ValueError(f"expected page lines of shape {shape}, "
                             f"got {page_lines.shape}")
        banks, rows = self.mapper.page_rows(pages)
        banks = np.ravel(banks)
        rows = np.ravel(rows)
        # one slice of lines per (bank, row) entry: a whole row, or with
        # 8 KB rows the page's part of it
        ppr = self.mapper.pages_per_row
        size = geometry.lines_per_row // ppr
        slices = page_lines.reshape(len(rows), size, geometry.words_per_line)
        parts = np.repeat(pages % ppr, self.mapper.rows_per_page)
        step = max(1, CHUNK_LINES // size)
        for start in range(0, len(rows), step):
            chunk = slice(start, start + step)
            self.device.populate_rows(
                banks[chunk], rows[chunk],
                self.codec.encode_rows(slices[chunk], rows[chunk]),
                time_s, notify=notify, parts=parts[chunk])
        if notify:
            n = pages.size * geometry.lines_per_page
            self.ebdi_ops += n
            self.line_writes += n
            self.probes.count("ctrl.ebdi_ops", n)
            self.probes.count("ctrl.line_writes", n)

    def zero_pages(self, pages: np.ndarray, time_s: float = 0.0) -> None:
        """OS page cleansing: fill pages with zeros (Sec. III-B), as one
        notified page write."""
        pages = np.ravel(pages)
        geometry = self.geometry
        zeros = np.zeros((len(pages), geometry.lines_per_page,
                          geometry.words_per_line), dtype=self.codec.dtype)
        self.populate_pages(pages, zeros, time_s, notify=True)

    def read_page(self, page: int, time_s: float = 0.0) -> np.ndarray:
        """Fetch and untransform one page's lines, ``(lines_per_page,
        words_per_line)``."""
        return self.read_lines(self.mapper.page_lines(page), time_s)
