"""Physical-address mapping between the OS view and DRAM coordinates.

The OS allocates 4 KB pages; with the Table II geometry one page is
exactly one logical row, and consecutive pages interleave across banks
(the row-interleaved mapping of :mod:`repro.dram.geometry`).  The
mapper is the single place that knows this correspondence, so the OS
model, the controller and the experiments all agree on it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.dram.geometry import DramGeometry


class AddressMapper:
    """Maps lines and pages to (bank, row[, line-in-row]) coordinates."""

    def __init__(self, geometry: DramGeometry):
        if (geometry.page_bytes % geometry.row_bytes != 0
                and geometry.row_bytes % geometry.page_bytes != 0):
            raise ValueError("page and row sizes must nest evenly")
        self.geometry = geometry
        # Exactly one of these is > 1 (both are 1 for 4 KB pages on 4 KB
        # rows): 2 KB rows give two rows per page, 8 KB rows give two
        # pages per row.
        self.rows_per_page = max(1, geometry.page_bytes // geometry.row_bytes)
        self.pages_per_row = max(1, geometry.row_bytes // geometry.page_bytes)

    # ------------------------------------------------------------------
    @property
    def total_pages(self) -> int:
        return self.geometry.total_bytes // self.geometry.page_bytes

    def line_location(self, line_addr) -> Tuple:
        """Line address -> (bank, row, line-in-row)."""
        return self.geometry.decompose_line(line_addr)

    # ------------------------------------------------------------------
    def page_rows(self, page) -> Tuple[np.ndarray, np.ndarray]:
        """Page index -> (banks, rows) of the logical rows backing it.

        With 4 KB rows each page maps to one (bank, row) pair; with
        2 KB rows a page spans two rows (trailing axis of size 2); with
        8 KB rows two pages share one row (use :meth:`page_line_offset`
        to locate the page inside it).
        """
        page = np.asarray(page)
        if (page < 0).any() or (page >= self.total_pages).any():
            raise ValueError("page index out of range")
        if self.rows_per_page > 1:
            global_rows = (
                page[..., None] * self.rows_per_page
                + np.arange(self.rows_per_page)
            )
        else:
            global_rows = page // self.pages_per_row
        banks = global_rows % self.geometry.num_banks
        rows = global_rows // self.geometry.num_banks
        return banks, rows

    def page_line_offset(self, page) -> np.ndarray:
        """First line-in-row of a page inside its (possibly shared) row."""
        page = np.asarray(page)
        return (page % self.pages_per_row) * self.geometry.lines_per_page

    def page_of_row(self, bank: int, row: int) -> int:
        """First page backed by a (bank, row) pair."""
        global_row = row * self.geometry.num_banks + bank
        if self.rows_per_page > 1:
            return global_row // self.rows_per_page
        return global_row * self.pages_per_row

    def page_lines(self, page: int) -> np.ndarray:
        """Global line addresses belonging to a page (ascending)."""
        if not 0 <= page < self.total_pages:
            raise ValueError("page index out of range")
        start = page * self.geometry.lines_per_page
        return np.arange(start, start + self.geometry.lines_per_page)
