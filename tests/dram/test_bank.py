"""Tests for bank storage and charge-state detection."""

import numpy as np
import pytest

from repro.dram.bank import Bank
from repro.dram.geometry import DramGeometry
from repro.transform.celltype import CellTypeLayout


@pytest.fixture
def geom():
    return DramGeometry(rows_per_bank=128, rows_per_ar=128, cell_interleave=32)


@pytest.fixture
def bank(geom):
    return Bank(geom, CellTypeLayout(interleave=32))


FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


class TestStorage:
    def test_starts_zeroed(self, bank):
        assert not bank.data.any()

    def test_write_read_line(self, bank, geom):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**64,
                             size=(geom.num_chips, geom.words_per_line_per_chip),
                             dtype=np.uint64)
        bank.write_line(3, 7, words, time_s=0.01)
        got = bank.read_line(3, 7)
        np.testing.assert_array_equal(got, words)
        assert bank.write_count == 1
        assert bank.read_count == 1

    def test_write_read_row(self, bank, geom):
        rng = np.random.default_rng(1)
        row_data = rng.integers(
            0, 2**64,
            size=(geom.num_chips, geom.lines_per_row, geom.words_per_line_per_chip),
            dtype=np.uint64)
        bank.write_row(9, row_data)
        np.testing.assert_array_equal(bank.read_row(9), row_data)

    def test_write_marks_dirty_and_recharges(self, bank, geom):
        bank.dirty[:] = False
        words = np.ones((geom.num_chips, 1), dtype=np.uint64)
        bank.write_line(5, 0, words, time_s=0.5)
        assert bank.dirty[5]
        assert (bank.last_refresh[5] == 0.5).all()

    def test_read_recharges_but_keeps_clean(self, bank):
        bank.dirty[:] = False
        bank.read_line(5, 0, time_s=0.25)
        assert not bank.dirty[5]
        assert (bank.last_refresh[5] == 0.25).all()


class TestDischargedDetection:
    def test_zero_true_row_is_discharged(self, bank):
        # rows 0..31 are true cells with interleave=32
        assert bank.detect_discharged(np.array([0]))[0]

    def test_zero_anti_row_is_charged(self, bank):
        # all-zero stored bits on an anti row mean fully *charged* cells
        assert bank.is_anti_row(32)
        assert not bank.detect_discharged(np.array([32]))[0]

    def test_ones_anti_row_is_discharged(self, bank):
        bank.data[32] = FULL
        assert bank.detect_discharged(np.array([32]))[0]

    def test_single_set_bit_charges_true_row(self, bank):
        bank.data[0, 3, 10, 0] = np.uint64(1)
        assert not bank.detect_discharged(np.array([0]))[0]

    def test_per_chip_granularity(self, bank, geom):
        bank.data[0, 3, 10, 0] = np.uint64(1)
        per_chip = bank.detect_discharged_per_chip(np.array([0]))[0]
        expected = np.ones(geom.num_chips, dtype=bool)
        expected[3] = False
        np.testing.assert_array_equal(per_chip, expected)

    def test_spared_row_never_discharged(self, bank):
        assert bank.detect_discharged(np.array([0]))[0]
        bank.spare_row(0)
        assert not bank.detect_discharged(np.array([0]))[0]

    def test_mixed_rows_vectorised(self, bank):
        bank.data[33] = FULL  # anti row fully discharged
        bank.data[1, 0, 0, 0] = np.uint64(5)  # true row charged
        got = bank.detect_discharged(np.array([0, 1, 32, 33]))
        np.testing.assert_array_equal(got, [True, False, False, True])


class TestRefreshBookkeeping:
    def test_refresh_rows_updates_all_chips(self, bank):
        bank.refresh_rows(np.array([2, 3]), 0.7)
        assert (bank.last_refresh[2] == 0.7).all()
        assert (bank.last_refresh[3] == 0.7).all()

    def test_refresh_slices_updates_selected(self, bank):
        bank.refresh_slices(np.array([2, 2]), np.array([0, 5]), 0.9)
        assert bank.last_refresh[2, 0] == 0.9
        assert bank.last_refresh[2, 5] == 0.9
        assert bank.last_refresh[2, 1] == 0.0

    def test_overdue_slices(self, bank):
        bank.last_refresh[:] = 0.0
        bank.refresh_rows(np.arange(128), 0.0)
        bank.refresh_slices(np.array([7]), np.array([4]), 0.05)
        overdue = bank.overdue_slices(time_s=0.069, tret_s=0.064)
        assert len(overdue) == 128 * 8 - 1
        assert [7, 4] not in overdue.tolist()
