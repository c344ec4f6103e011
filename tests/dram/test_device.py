"""Tests for the rank-level device wrapper."""

import numpy as np
import pytest

from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.transform.celltype import CellTypeLayout


@pytest.fixture
def geom():
    return DramGeometry(rows_per_bank=64, rows_per_ar=32, cell_interleave=16)


@pytest.fixture
def device(geom):
    return DramDevice(geom, CellTypeLayout(interleave=16))


class TestConstruction:
    def test_one_bank_per_geometry_bank(self, device, geom):
        assert len(device.banks) == geom.num_banks

    def test_per_bank_layouts(self, geom):
        layouts = [CellTypeLayout(16, phase=b % 2) for b in range(8)]
        device = DramDevice(geom, layouts=layouts)
        assert device.banks[0].is_anti_row(0) is False
        assert device.banks[1].is_anti_row(0) is True

    def test_layout_count_must_match(self, geom):
        with pytest.raises(ValueError, match="one layout per bank"):
            DramDevice(geom, layouts=[CellTypeLayout(16)])


class TestObservers:
    def test_observers_fire_on_writes(self, device, geom):
        seen = []
        device.add_write_observer(lambda b, r: seen.append((b, r)))
        words = np.zeros((geom.num_chips, 1), dtype=np.uint64)
        device.write_line(2, 5, 0, words)
        row_data = np.zeros(
            (geom.num_chips, geom.lines_per_row, 1), dtype=np.uint64)
        device.write_row(3, 7, row_data)
        device.write_line_range(4, 9, 0, row_data[:, :4, :])
        assert seen == [(2, 5), (3, 7), (4, 9)]

    def test_reads_do_not_notify(self, device):
        seen = []
        device.add_write_observer(lambda b, r: seen.append((b, r)))
        device.read_line(0, 0, 0)
        device.read_row(0, 1)
        assert seen == []

    def test_populate_notify_flag(self, device, geom):
        seen = []
        device.add_write_observer(
            lambda b, r: seen.append((b.tolist(), r.tolist())))
        data = np.zeros(
            (2, geom.num_chips, geom.lines_per_row, 1), dtype=np.uint64)
        device.populate_rows(np.array([0, 0]), np.array([1, 2]), data,
                             notify=False)
        assert seen == []
        device.populate_rows(np.array([0, 5]), np.array([3, 4]), data,
                             notify=True)
        assert seen == [([0, 5], [3, 4])]


class TestPopulate:
    def test_bulk_write(self, device, geom):
        banks, rows = np.array([0, 3, 3]), np.array([1, 4, 6])
        data = np.ones(
            (3, geom.num_chips, geom.lines_per_row, geom.words_per_line_per_chip),
            dtype=np.uint64)
        device.dirty[:] = False
        device.populate_rows(banks, rows, data, time_s=0.1)
        assert (device.data[banks, rows] == 1).all()
        assert device.dirty[banks, rows].all() and device.dirty.sum() == 3
        assert (device.last_refresh[banks, rows] == 0.1).all()
        assert [bank.write_count for bank in device.banks] == (
            [geom.lines_per_row, 0, 0, 2 * geom.lines_per_row, 0, 0, 0, 0])

    def test_parts_fill_only_their_lines(self, device, geom):
        """A slice of half a row's lines fills its half; the row's other
        half keeps what it held."""
        half = geom.lines_per_row // 2
        device.data[2, 7] = 5
        data = np.full((2, geom.num_chips, half, geom.words_per_line_per_chip),
                       9, dtype=np.uint64)
        device.populate_rows(np.array([2, 2]), np.array([7, 8]), data,
                             parts=np.array([1, 0]))
        assert (device.data[2, 7, :, :half] == 5).all()
        assert (device.data[2, 7, :, half:] == 9).all()
        assert (device.data[2, 8, :, :half] == 9).all()
        assert not device.data[2, 8, :, half:].any()
        assert device.banks[2].write_count == 2 * half


class TestAggregates:
    def test_total_counters(self, device, geom):
        words = np.zeros((geom.num_chips, 1), dtype=np.uint64)
        device.write_line(0, 0, 0, words)
        device.read_line(0, 0, 0)
        assert device.total_writes == 1
        assert device.total_reads == 1

    def test_discharged_fraction_all_zero(self, device, geom):
        """Boot state: true rows discharged, anti rows charged -> 50%
        with a balanced interleave."""
        assert device.discharged_row_fraction() == pytest.approx(0.5)

    def test_discharged_fraction_after_anti_fill(self, device, geom):
        full = np.uint64(0xFFFFFFFFFFFFFFFF)
        for bank in device.banks:
            anti = bank._anti_rows
            bank.data[anti] = full
        assert device.discharged_row_fraction() == 1.0
