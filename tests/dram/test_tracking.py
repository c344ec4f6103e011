"""Tests for the tracking structures (access bits, status table, naive SRAM)."""

import numpy as np
import pytest

from repro.dram.geometry import DramGeometry
from repro.dram.tracking import (
    AccessBitTable,
    DischargedStatusTable,
    NaiveSramTracker,
)


@pytest.fixture
def geom():
    return DramGeometry(rows_per_bank=512, rows_per_ar=128, cell_interleave=64)


class TestAccessBitTable:
    def test_starts_clear(self, geom):
        table = AccessBitTable(geom)
        assert not table.peek(0, 0)

    def test_write_sets_covering_bit(self, geom):
        table = AccessBitTable(geom)
        table.note_writes(2, 200)
        assert table.peek(2, 200 // 128)
        assert not table.peek(2, 0)
        assert not table.peek(1, 200 // 128)

    def test_test_and_clear(self, geom):
        table = AccessBitTable(geom)
        table.note_writes(0, 5)
        assert table.test_and_clear(0, 0)
        assert not table.test_and_clear(0, 0)

    def test_vectorised_note_writes(self, geom):
        table = AccessBitTable(geom)
        table.note_writes(np.array([0, 1, 1]), np.array([0, 130, 400]))
        assert table.peek(0, 0)
        assert table.peek(1, 1)
        assert table.peek(1, 3)

    def test_sram_cost_one_bit_per_set(self, geom):
        table = AccessBitTable(geom)
        assert table.costs.sram_bits == geom.num_banks * geom.ar_sets_per_bank

    def test_paper_scale_cost_is_8kb(self):
        """32 GB / 8 banks: 8192 sets x 8 banks bits = 8 KB SRAM (Sec. IV-B)."""
        geom = DramGeometry.paper_config()
        table = AccessBitTable(geom)
        assert table.costs.sram_bytes == 8 << 10


class TestDischargedStatusTable:
    def test_starts_all_charged(self, geom):
        table = DischargedStatusTable(geom)
        assert not table.peek(0, 0).any()
        assert table.discharged_fraction() == 0.0

    def test_write_read_vector(self, geom):
        table = DischargedStatusTable(geom)
        status = np.zeros(128, dtype=bool)
        status[::2] = True
        table.write_vector(1, 2, status)
        got = table.read_vector(1, 2)
        np.testing.assert_array_equal(got, status)
        assert table.reads == 1
        assert table.writes == 1

    def test_rejects_bad_vector_length(self, geom):
        table = DischargedStatusTable(geom)
        with pytest.raises(ValueError):
            table.write_vector(0, 0, np.zeros(64, dtype=bool))

    def test_dram_cost_one_bit_per_row(self, geom):
        table = DischargedStatusTable(geom)
        assert table.costs.dram_bits == geom.total_rows
        # staging register: rows_per_ar bits == the paper's 16 B buffer
        assert table.costs.sram_bits == 128

    def test_paper_scale_cost_is_1mb(self):
        geom = DramGeometry.paper_config()
        table = DischargedStatusTable(geom)
        assert table.costs.dram_bytes == 1 << 20


class TestNaiveSramTracker:
    def test_note_write_updates(self, geom):
        tracker = NaiveSramTracker(geom)
        tracker.note_write(0, 10, True)
        assert tracker.is_discharged(0, 10)
        tracker.note_write(0, 10, False)
        assert not tracker.is_discharged(0, 10)
        assert tracker.updates == 2

    def test_vector_round_trip(self, geom):
        tracker = NaiveSramTracker(geom)
        status = np.zeros(128, dtype=bool)
        status[3] = True
        tracker.set_vector(1, 0, status)
        np.testing.assert_array_equal(tracker.vector(1, 0), status)

    def test_sram_cost_one_bit_per_row(self, geom):
        tracker = NaiveSramTracker(geom)
        assert tracker.costs.sram_bits == geom.total_rows

    def test_paper_scale_cost_is_1mb(self):
        """The naive design needs a 1 MB SRAM at 32 GB (Sec. IV-B)."""
        geom = DramGeometry.paper_config()
        tracker = NaiveSramTracker(geom)
        assert tracker.costs.sram_bytes == 1 << 20
