"""Tests for the page allocator and cleansing policies."""

import numpy as np
import pytest

from repro.controller.memctrl import MemoryController
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.osmodel.pages import CleansePolicy, PageAllocator
from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import ValueTransformCodec


@pytest.fixture
def controller():
    geom = DramGeometry(rows_per_bank=128, rows_per_ar=32, cell_interleave=32)
    layout = CellTypeLayout(interleave=32)
    device = DramDevice(geom, layout)
    predictor = CellTypePredictor.from_layout(layout, geom.rows_per_bank)
    return MemoryController(device, ValueTransformCodec(predictor))


class TestAllocation:
    def test_starts_all_free(self, controller):
        allocator = PageAllocator(controller)
        assert allocator.allocated_fraction == 0.0
        assert len(allocator.free_pages) == allocator.total_pages

    def test_allocate_marks_pages(self, controller):
        allocator = PageAllocator(controller)
        pages = allocator.allocate(10)
        assert len(pages) == 10
        assert allocator.allocated_fraction == pytest.approx(
            10 / allocator.total_pages
        )
        assert all(allocator.is_allocated(int(p)) for p in pages)

    def test_exhaustion_raises(self, controller):
        allocator = PageAllocator(controller)
        allocator.allocate(allocator.total_pages)
        with pytest.raises(MemoryError):
            allocator.allocate(1)

    def test_free_returns_pages(self, controller):
        allocator = PageAllocator(controller)
        pages = allocator.allocate(5)
        allocator.free(pages)
        assert allocator.allocated_fraction == 0.0

    def test_double_free_rejected(self, controller):
        allocator = PageAllocator(controller)
        pages = allocator.allocate(2)
        allocator.free(pages)
        with pytest.raises(ValueError, match="double free"):
            allocator.free(pages)

    def test_seed_allocated_fraction(self, controller):
        allocator = PageAllocator(controller, rng=np.random.default_rng(0))
        allocator.seed_allocated_fraction(0.25)
        assert allocator.allocated_fraction == pytest.approx(0.25, abs=0.01)

    def test_seed_rejects_bad_fraction(self, controller):
        allocator = PageAllocator(controller)
        with pytest.raises(ValueError):
            allocator.seed_allocated_fraction(1.5)


class TestCleansePolicies:
    def _dirty_page(self, controller, page):
        rng = np.random.default_rng(3)
        lines = rng.integers(1, 2**64, size=(64, 8), dtype=np.uint64)
        controller.populate_pages([page], lines[None], notify=True)

    def test_zero_on_free_cleanses_at_free_time(self, controller):
        allocator = PageAllocator(controller, CleansePolicy.ZERO_ON_FREE)
        pages = allocator.allocate(1)
        self._dirty_page(controller, int(pages[0]))
        allocator.free(pages)
        assert not controller.read_page(int(pages[0])).any()
        assert allocator.zero_fills == 1

    def test_zero_on_alloc_leaves_freed_pages_dirty(self, controller):
        allocator = PageAllocator(controller, CleansePolicy.ZERO_ON_ALLOC)
        pages = allocator.allocate(1)
        page = int(pages[0])
        self._dirty_page(controller, page)
        allocator.free(pages)
        assert controller.read_page(page).any()  # stale content stays
        # ... until the page is reused
        reused = allocator.allocate(allocator.total_pages)
        assert not controller.read_page(page).any()

    def test_none_policy_never_zeroes(self, controller):
        allocator = PageAllocator(controller, CleansePolicy.NONE)
        pages = allocator.allocate(1)
        self._dirty_page(controller, int(pages[0]))
        allocator.free(pages)
        allocator.allocate(allocator.total_pages)
        assert allocator.zero_fills == 0

    def test_zero_on_free_makes_rows_skippable(self, controller):
        """The OS-transparent benefit: freed pages become discharged rows."""
        allocator = PageAllocator(controller, CleansePolicy.ZERO_ON_FREE)
        pages = allocator.allocate(8)
        for page in pages:
            self._dirty_page(controller, int(page))
        allocator.free(pages)
        banks, rows = controller.mapper.page_rows(pages)
        per_chip = controller.device.detect_discharged_per_chip(banks, rows)
        assert per_chip.all()
