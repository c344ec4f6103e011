"""Cross-module property-based tests (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.memctrl import MemoryController
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import ValueTransformCodec


def make_controller(row_bytes=4096, error_rate=0.0, seed=0):
    geom = DramGeometry(rows_per_bank=(4 << 20) // (8 * row_bytes),
                        row_bytes=row_bytes, rows_per_ar=32,
                        cell_interleave=32)
    layout = CellTypeLayout(interleave=32)
    device = DramDevice(geom, layout)
    predictor = CellTypePredictor.from_layout(
        layout, geom.rows_per_bank, error_rate, np.random.default_rng(seed)
    )
    return MemoryController(device, ValueTransformCodec(predictor))


class TestMemorySemantics:
    """The fundamental contract: DRAM behaves like memory."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           n=st.integers(min_value=1, max_value=40))
    def test_last_write_wins(self, seed, n):
        ctrl = make_controller()
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, ctrl.geometry.total_lines, size=n)
        lines = rng.integers(0, 2**64, size=(n, 8), dtype=np.uint64)
        expected = {}
        for addr, line in zip(addrs, lines):
            ctrl.write_lines(addr[None], line[None])
            expected[int(addr)] = line
        for addr, line in expected.items():
            np.testing.assert_array_equal(ctrl.read_line(addr), line)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           error_rate=st.floats(min_value=0.0, max_value=1.0))
    def test_memory_semantics_independent_of_celltype_accuracy(
            self, seed, error_rate):
        ctrl = make_controller(error_rate=error_rate, seed=seed)
        rng = np.random.default_rng(seed)
        addrs = rng.choice(ctrl.geometry.total_lines, size=16, replace=False)
        lines = rng.integers(0, 2**64, size=(16, 8), dtype=np.uint64)
        ctrl.write_lines(addrs, lines)
        for addr, line in zip(addrs, lines):
            np.testing.assert_array_equal(ctrl.read_line(int(addr)), line)

    @settings(max_examples=10, deadline=None)
    @given(row_bytes=st.sampled_from([2048, 4096, 8192]),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_page_semantics_across_row_sizes(self, row_bytes, seed):
        ctrl = make_controller(row_bytes=row_bytes)
        rng = np.random.default_rng(seed)
        pages = rng.choice(ctrl.mapper.total_pages, size=4, replace=False)
        contents = rng.integers(0, 2**64, size=(4, 64, 8), dtype=np.uint64)
        for page, content in zip(pages, contents):
            ctrl.populate_pages([page], content[None], notify=True)
        for page, content in zip(pages, contents):
            np.testing.assert_array_equal(ctrl.read_page(int(page)), content)


class TestGeometryProperties:
    @settings(max_examples=50)
    @given(addr=st.integers(min_value=0, max_value=(4 << 20) // 64 - 1))
    def test_line_decompose_compose_identity(self, addr):
        geom = DramGeometry(rows_per_bank=128, rows_per_ar=32,
                            cell_interleave=32)
        bank, row, lir = geom.decompose_line(addr)
        assert geom.compose_line(bank, row, lir) == addr

    @settings(max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_distinct_addresses_distinct_locations(self, seed):
        geom = DramGeometry(rows_per_bank=128, rows_per_ar=32,
                            cell_interleave=32)
        rng = np.random.default_rng(seed)
        addrs = rng.choice(geom.total_lines, size=64, replace=False)
        locations = set(zip(*map(np.ravel, geom.decompose_line(addrs))))
        assert len(locations) == 64
