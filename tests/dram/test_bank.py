"""Tests for one bank's storage and charge-state detection, on its slice
of the rank's arrays: the device's batch paths, its rank-wide detector
and the module functions ``discharged`` and ``overdue_slices``."""

import numpy as np
import pytest

from repro.dram.device import DramDevice, LineWrites, discharged, overdue_slices
from repro.dram.geometry import DramGeometry
from repro.transform.celltype import CellTypeLayout


@pytest.fixture
def geom():
    return DramGeometry(rows_per_bank=128, rows_per_ar=128, cell_interleave=32)


@pytest.fixture
def device(geom):
    return DramDevice(geom, CellTypeLayout(interleave=32))


FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


def detect(device, rows):
    """Is each of bank 0's ``rows`` discharged in every chip?"""
    rows = np.asarray(rows)
    return device.detect_discharged_per_chip(np.zeros_like(rows),
                                             rows).all(axis=-1)


def read_line(device, row, line, time_s=0.0):
    """Bank 0's words of one line, ``(num_chips, words)``."""
    return device.read_lines(np.array([0]), np.array([row]), np.array([line]),
                             time_s)[:, 0]


class TestStorage:
    def test_starts_zeroed(self, device):
        assert not device.data.any()

    def test_write_read_line(self, device, geom):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**64,
                             size=(geom.num_chips, geom.words_per_line_per_chip),
                             dtype=np.uint64)
        device.write_lines(LineWrites(np.array([0]), np.array([3]),
                                      np.array([7]), words[:, None]),
                           time_s=0.01)
        np.testing.assert_array_equal(read_line(device, 3, 7), words)

    def test_write_read_row(self, device, geom):
        rng = np.random.default_rng(1)
        row_data = rng.integers(
            0, 2**64,
            size=(geom.num_chips, geom.lines_per_row, geom.words_per_line_per_chip),
            dtype=np.uint64)
        device.populate_rows(np.array([0]), np.array([9]), row_data[None])
        lines = np.arange(geom.lines_per_row)
        got = device.read_lines(np.zeros_like(lines), np.full_like(lines, 9),
                                lines)
        np.testing.assert_array_equal(got, row_data)

    def test_write_marks_dirty_and_recharges(self, device, geom):
        device.dirty[:] = False
        words = np.ones((geom.num_chips, 1, 1), dtype=np.uint64)
        device.write_lines(LineWrites(np.array([0]), np.array([5]),
                                      np.array([0]), words), time_s=0.5)
        assert device.dirty[0, 5] and device.dirty.sum() == 1
        assert (device.last_refresh[0, 5] == 0.5).all()

    def test_read_recharges_but_keeps_clean(self, device):
        device.dirty[:] = False
        read_line(device, 5, 0, time_s=0.25)
        assert not device.dirty.any()
        assert (device.last_refresh[0, 5] == 0.25).all()


class TestDischargedDetection:
    def test_zero_true_row_is_discharged(self, device):
        # rows 0..31 are true cells with interleave=32
        assert detect(device, [0])[0]

    def test_zero_anti_row_is_charged(self, device):
        # all-zero stored bits on an anti row mean fully *charged* cells
        assert device.anti[0, 32]
        assert not detect(device, [32])[0]

    def test_ones_anti_row_is_discharged(self, device):
        device.data[0, 32] = FULL
        assert detect(device, [32])[0]

    def test_single_set_bit_charges_true_row(self, device):
        device.data[0, 0, 3, 10, 0] = np.uint64(1)
        assert not detect(device, [0])[0]

    def test_per_chip_granularity(self, device, geom):
        device.data[0, 0, 3, 10, 0] = np.uint64(1)
        per_chip = device.detect_discharged_per_chip(np.array([0]),
                                                     np.array([0]))[0]
        expected = np.ones(geom.num_chips, dtype=bool)
        expected[3] = False
        np.testing.assert_array_equal(per_chip, expected)

    def test_spared_row_never_discharged(self, device):
        assert detect(device, [0])[0]
        device.spared[0, 0] = True
        assert not detect(device, [0])[0]

    def test_mixed_rows_vectorised(self, device):
        device.data[0, 33] = FULL  # anti row fully discharged
        device.data[0, 1, 0, 0, 0] = np.uint64(5)  # true row charged
        got = detect(device, [0, 1, 32, 33])
        np.testing.assert_array_equal(got, [True, False, False, True])
        # the module detector reads any slice of the rank's arrays
        per_chip = discharged(device.data[0], device.anti[0], device.spared[0])
        np.testing.assert_array_equal(per_chip.all(axis=1)[[0, 1, 32, 33]],
                                      got)


class TestRefreshBookkeeping:
    def test_overdue_slices(self, device):
        device.last_refresh[0, 7, 4] = 0.05
        overdue = overdue_slices(device.last_refresh[0], time_s=0.069,
                                 tret_s=0.064)
        assert len(overdue) == 128 * 8 - 1
        assert [7, 4] not in overdue.tolist()
