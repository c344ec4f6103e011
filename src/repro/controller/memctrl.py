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
from repro.dram.device import DramDevice
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
        bank, row, line_in_row = self.mapper.line_location(line_addr)
        chip_words = self.device.read_line(int(bank), int(row), int(line_in_row),
                                           time_s)
        self.ebdi_ops += 1
        self.line_reads += 1
        self.probes.count("ctrl.ebdi_ops")
        self.probes.count("ctrl.line_reads")
        return self.codec.decode_row(chip_words[:, None, :], int(row))[0]

    def write_lines(self, line_addrs: np.ndarray, lines: np.ndarray,
                    time_s: float = 0.0) -> None:
        """Transform and store a batch of cachelines (vectorised).

        ``line_addrs`` is ``(n,)`` and ``lines`` is ``(n, words)``; all
        lines are written at the same simulated time (within-window
        traffic is fed span by span).  The whole batch is encoded in
        one pass of the codec's batched path.
        """
        line_addrs = np.asarray(line_addrs)
        lines = np.asarray(lines)
        if len(line_addrs) == 0:
            return
        banks, rows, lines_in_row = self.mapper.line_location(line_addrs)
        banks = np.atleast_1d(banks)
        rows = np.atleast_1d(rows)
        lines_in_row = np.atleast_1d(lines_in_row)
        transformed = self.codec.transform_lines(lines, rows)
        if self.probes.enabled:
            # zero fraction after value transformation, counted before
            # the celltype complement (which flips anti rows to all-ones):
            # the quantity Sec. V's discharged-row detection feeds on
            zero = self.codec.stored_zero(rows)[:, None]
            self.probes.observe(
                "codec.encoded_zero_fraction",
                float((transformed == zero).mean()),
            )
        chip_words = self.codec.rotation.scatter(transformed, rows)
        if self.watchdog.enabled:
            # decode the batch's first line from the words it stores
            row0 = int(rows[0])
            decoded = self.codec.decode_row(chip_words[:, :1], row0)
            self.watchdog.check(
                "codec.round_trip",
                bool(np.array_equal(decoded, lines[:1])),
                row=row0, t=round(time_s, 6),
            )
        for i in range(len(line_addrs)):
            self.device.write_line(int(banks[i]), int(rows[i]),
                                   int(lines_in_row[i]), chip_words[:, i], time_s)
        self.ebdi_ops += len(line_addrs)
        self.line_writes += len(line_addrs)
        self.probes.count("ctrl.ebdi_ops", len(line_addrs))
        self.probes.count("ctrl.line_writes", len(line_addrs))
        if self.probes.tracing:
            self.probes.event("ctrl.write_batch", n=len(line_addrs), t=time_s)

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

    def _assemble_shared_rows(self, pages: np.ndarray, page_lines: np.ndarray):
        """Merge page batches into full-row batches when rows hold
        several pages.  Returns (anchor_pages, row_lines) where each
        anchor page identifies its row and ``row_lines`` carries the
        row's full line content (absent page slices zero-filled)."""
        ppr = self.mapper.pages_per_row
        lpp = self.geometry.lines_per_page
        row_ids = pages // ppr
        unique_rows = np.unique(row_ids)
        out = np.zeros(
            (len(unique_rows), self.geometry.lines_per_row,
             self.geometry.words_per_line),
            dtype=self.codec.dtype,
        )
        row_pos = {int(r): i for i, r in enumerate(unique_rows)}
        for i, page in enumerate(pages):
            slot = int(page % ppr)
            out[row_pos[int(page // ppr)], slot * lpp:(slot + 1) * lpp] = (
                page_lines[i]
            )
        return unique_rows * ppr, out

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
        """
        pages = np.asarray(pages)
        page_lines = np.asarray(page_lines)
        if self.mapper.pages_per_row > 1:
            # Pages smaller than rows (8 KB rows): assemble full rows,
            # zero-filling row slices whose page is not in this batch
            # (population starts from cleansed memory, so absent slices
            # are zero by definition).
            pages, page_lines = self._assemble_shared_rows(pages, page_lines)
        banks, rows = self.mapper.page_rows(pages)
        banks = np.ravel(np.atleast_1d(banks))
        rows = np.ravel(np.atleast_1d(rows))
        row_lines = page_lines.reshape(
            len(rows), self.geometry.lines_per_row, self.geometry.words_per_line
        )
        encoded = self.codec.encode_rows(row_lines, rows)
        for bank in np.unique(banks):
            idx = np.flatnonzero(banks == bank)
            self.device.populate_rows(int(bank), rows[idx], encoded[idx],
                                      time_s, notify=notify)
        if notify:
            self.ebdi_ops += pages.size * self.geometry.lines_per_page
            self.line_writes += pages.size * self.geometry.lines_per_page
            self.probes.count("ctrl.ebdi_ops",
                              pages.size * self.geometry.lines_per_page)
            self.probes.count("ctrl.line_writes",
                              pages.size * self.geometry.lines_per_page)
