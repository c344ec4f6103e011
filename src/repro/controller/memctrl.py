"""Memory controller front end: transformed reads and writes.

:class:`MemoryController` is what the cache hierarchy and the OS model
talk to.  Every write runs the value-transformation pipeline before the
bits reach the device; every read runs the inverse, so the rest of the
system only ever sees original values.  The controller also keeps the
operation counts the energy model needs:

* ``ebdi_ops`` — one per line read *and* write (the EBDI module sits on
  both paths, paper Sec. VI-B);
* line/page read/write counts for DRAM activity power.

Page-level helpers (:meth:`write_page`, :meth:`zero_pages`) exist
because the OS model and workload population work in pages; they use
the codec's bulk interface.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.controller.mapping import AddressMapper
from repro.dram.device import DramDevice, LineWrites
from repro.obs.invariants import get_watchdog
from repro.obs.probes import NULL_PROBES
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
        self.watchdog = get_watchdog()
        self.ebdi_ops = 0
        self.line_reads = 0
        self.line_writes = 0

    # ------------------------------------------------------------------
    # line interface (cacheline granularity)
    # ------------------------------------------------------------------
    def write_line(self, line_addr: int, line: np.ndarray, time_s: float = 0.0) -> None:
        """Transform and store one cacheline.

        ``line`` holds ``words_per_line`` unsigned words (the logical,
        untransformed value).
        """
        bank, row, line_in_row = self.mapper.line_location(line_addr)
        chip_words = self.codec.encode_row(line.reshape(1, -1), int(row))[:, 0, :]
        self.device.write_line(int(bank), int(row), int(line_in_row),
                               chip_words, time_s)
        self.ebdi_ops += 1
        self.line_writes += 1
        self.probes.count("ctrl.ebdi_ops")
        self.probes.count("ctrl.line_writes")

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
        ``codec.encoded_zero_fraction`` observation and, under the
        watchdog, one round-trip check of its first line.  All lines go
        through one :meth:`ValueTransformCodec.encode_row` call, and the
        round-trip checks through one ``decode_row`` call.
        """
        lines = np.asarray(lines)
        banks, rows, lines_in_row = self._locate(line_addrs)
        chip_words = self.codec.encode_row(lines, rows)
        n = len(banks)
        if not n:
            return LineWrites(banks, rows, lines_in_row, chip_words)
        times = np.broadcast_to(np.asarray(time_s, dtype=float), (n,))
        starts = np.flatnonzero(np.r_[True, times[1:] != times[:-1]])
        sizes = np.diff(np.r_[starts, n])
        self.ebdi_ops += n
        self.line_writes += n
        self.probes.count("ctrl.ebdi_ops", n)
        self.probes.count("ctrl.line_writes", n)
        if self.probes.enabled:
            # zero fraction after value transformation, counted before
            # the celltype complement (which flips anti rows to all-ones):
            # the quantity Sec. V's discharged-row detection feeds on.
            # Rotation only moves a line's words, so the chip words
            # count the same.
            zero = self.codec.stored_zero(rows)[None, :, None]
            zeros = np.add.reduceat((chip_words == zero).sum(axis=(0, 2)), starts)
            fractions = [int(z) / (int(size) * lines.shape[1])
                         for z, size in zip(zeros, sizes)]
            self.probes.observe_many("codec.encoded_zero_fraction",
                                     fractions, sums=fractions)
        if self.watchdog.enabled:
            # decode every batch's first line from the words it stores
            decoded = self.codec.decode_row(chip_words[:, starts], rows[starts])
            round_trips = (decoded == lines[starts]).all(axis=1)
        for k, (start, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
            t = float(times[start])
            if self.watchdog.enabled:
                self.watchdog.check("codec.round_trip", bool(round_trips[k]),
                                    row=int(rows[start]), t=round(t, 6))
            if self.probes.tracing:
                self.probes.event("ctrl.write_batch", n=size, t=t)
        return LineWrites(banks, rows, lines_in_row, chip_words)

    def _locate(self, line_addrs):
        """``(banks, rows, lines_in_row)`` of line addresses, as 1-D arrays."""
        return tuple(np.atleast_1d(part) for part in
                     self.mapper.line_location(np.asarray(line_addrs)))

    # ------------------------------------------------------------------
    # page interface (used by the OS model and workload population)
    # ------------------------------------------------------------------
    def write_page(self, page: int, lines: np.ndarray, time_s: float = 0.0,
                   notify: bool = True) -> None:
        """Write a full page (``lines_per_page`` x ``words_per_line``).

        A page spans one row with 4 KB rows, two with 2 KB rows; each
        backing row gets its slice of the page's lines.
        """
        banks, rows = self._page_location(page)
        lines_per_row = self.geometry.lines_per_row
        offset = int(self.mapper.page_line_offset(page))
        for i, (bank, row) in enumerate(zip(banks, rows)):
            row_lines = lines[i * lines_per_row:(i + 1) * lines_per_row]
            chip_data = self.codec.encode_row(row_lines, int(row))
            if len(row_lines) == lines_per_row and notify:
                self.device.write_row(int(bank), int(row), chip_data, time_s)
            elif len(row_lines) == lines_per_row:
                self.device.populate_rows(int(bank), np.array([row]),
                                          chip_data[None], time_s, notify=False)
            else:
                # Page smaller than the row (8 KB rows): write its slice.
                self.device.write_line_range(int(bank), int(row), offset,
                                             chip_data, time_s)
        self.ebdi_ops += self.geometry.lines_per_page
        self.line_writes += self.geometry.lines_per_page
        self.probes.count("ctrl.ebdi_ops", self.geometry.lines_per_page)
        self.probes.count("ctrl.line_writes", self.geometry.lines_per_page)

    def read_page(self, page: int, time_s: float = 0.0) -> np.ndarray:
        banks, rows = self._page_location(page)
        offset = int(self.mapper.page_line_offset(page))
        parts = []
        for bank, row in zip(banks, rows):
            chip_data = self.device.read_row(int(bank), int(row), time_s)
            decoded = self.codec.decode_row(chip_data, int(row))
            if len(decoded) > self.geometry.lines_per_page:
                decoded = decoded[offset:offset + self.geometry.lines_per_page]
            parts.append(decoded)
        self.ebdi_ops += self.geometry.lines_per_page
        self.line_reads += self.geometry.lines_per_page
        self.probes.count("ctrl.ebdi_ops", self.geometry.lines_per_page)
        self.probes.count("ctrl.line_reads", self.geometry.lines_per_page)
        return np.concatenate(parts, axis=0)

    def _page_location(self, page: int):
        """Backing (banks, rows) of one page, always 1-D arrays."""
        banks, rows = self.mapper.page_rows(page)
        return np.atleast_1d(banks), np.atleast_1d(rows)

    def zero_page(self, page: int, time_s: float = 0.0) -> None:
        """OS page cleansing: fill a page with zeros (Sec. III-B)."""
        lines = np.zeros(
            (self.geometry.lines_per_page, self.geometry.words_per_line),
            dtype=self.codec.dtype,
        )
        self.write_page(page, lines, time_s)

    def zero_pages(self, pages: np.ndarray, time_s: float = 0.0) -> None:
        for page in np.asarray(pages).ravel():
            self.zero_page(int(page), time_s)

    # ------------------------------------------------------------------
    # bulk population (initial workload contents)
    # ------------------------------------------------------------------
    def populate_pages(self, pages: np.ndarray, page_lines: np.ndarray,
                       time_s: float = 0.0, notify: bool = False) -> None:
        """Fill many pages at once using the codec's bulk path.

        ``page_lines`` has shape ``(n_pages, lines_per_page,
        words_per_line)``.  With ``notify=False`` (default) the fill
        models content that existed before measurement starts: access
        bits stay clear and the first refresh window derives status from
        the bank-side dirty flags.  EBDI op counts are *not* charged for
        unnotified population.

        Banks are encoded and filled one at a time, so the encoded image
        held at once is never larger than one bank's share of the batch.
        """
        pages = np.ravel(pages)
        page_lines = np.asarray(page_lines)
        banks, rows = self.mapper.page_rows(pages)
        banks = np.ravel(banks)
        rows = np.ravel(rows)
        ppr = self.mapper.pages_per_row
        # one slice of lines per (bank, row) entry: a whole row, or with
        # 8 KB rows the page's part of it
        slices = page_lines.reshape(len(rows), self.geometry.lines_per_row // ppr,
                                    self.geometry.words_per_line)
        for bank in np.unique(banks):
            idx = np.flatnonzero(banks == bank)
            if ppr > 1:
                # Pages smaller than rows: assemble the bank's full rows,
                # zero-filling slices whose page is not in this batch
                # (population starts from cleansed memory, so absent
                # slices are zero by definition).
                bank_rows, row_of = np.unique(rows[idx], return_inverse=True)
                row_lines = np.zeros(
                    (len(bank_rows), ppr, slices.shape[1], slices.shape[2]),
                    dtype=self.codec.dtype)
                row_lines[row_of.ravel(), pages[idx] % ppr] = slices[idx]
                row_lines = row_lines.reshape(len(bank_rows), -1, slices.shape[2])
            else:
                bank_rows, row_lines = rows[idx], slices[idx]
            self.device.populate_rows(int(bank), bank_rows,
                                      self.codec.encode_rows(row_lines, bank_rows),
                                      time_s, notify=notify)
        if notify:
            self.ebdi_ops += pages.size * self.geometry.lines_per_page
            self.line_writes += pages.size * self.geometry.lines_per_page
            self.probes.count("ctrl.ebdi_ops",
                              pages.size * self.geometry.lines_per_page)
            self.probes.count("ctrl.line_writes",
                              pages.size * self.geometry.lines_per_page)
