"""Retention/decay model and integrity tests (incl. failure injection)."""

import numpy as np
import pytest

from repro.dram.device import DramDevice, discharged_value
from repro.dram.geometry import DramGeometry
from repro.dram.refresh import RefreshEngine
from repro.dram.retention import RetentionTracker
from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import ValueTransformCodec
from tests.dram import reference


@pytest.fixture
def geom():
    return DramGeometry(rows_per_bank=128, rows_per_ar=128, cell_interleave=32)


@pytest.fixture
def layout():
    return CellTypeLayout(interleave=32)


@pytest.fixture
def device(geom, layout):
    return DramDevice(geom, layout)


@pytest.fixture
def codec(geom, layout):
    return ValueTransformCodec(
        CellTypePredictor.from_layout(layout, geom.rows_per_bank)
    )


TRET = 0.032


class TestRetentionTracker:
    def test_rejects_nonpositive_window(self, device):
        with pytest.raises(ValueError):
            RetentionTracker(device, 0.0)

    def test_no_overdue_right_after_refresh(self, device):
        tracker = RetentionTracker(device, TRET)
        device.last_refresh[...] = 0.0
        assert tracker.overdue(TRET * 0.9) == []
        assert tracker.verify_no_loss(TRET * 0.9)

    def test_overdue_after_window(self, device):
        tracker = RetentionTracker(device, TRET)
        assert len(tracker.overdue(TRET * 1.5)) == device.geometry.total_rows * 8

    def test_discharged_rows_survive_decay(self, device, codec):
        """Zero content decays to itself: skipping discharged rows is safe."""
        geom = device.geometry
        rows = np.arange(geom.rows_per_bank)
        lines = np.zeros((len(rows), geom.lines_per_row, 8), dtype=np.uint64)
        device.populate_rows(np.zeros_like(rows), rows,
                             codec.encode_rows(lines, rows))
        tracker = RetentionTracker(device, TRET)
        report = tracker.decay(TRET * 2)
        assert report.overdue_slices > 0
        # bank 0 was populated with discharged content -> no loss there
        assert all(e.bank != 0 for e in report.corrupted)

    def test_charged_rows_corrupt_on_decay(self, device, codec):
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 2**64, size=(device.geometry.lines_per_row, 8),
                             dtype=np.uint64)
        device.populate_rows([0], [5], codec.encode_rows(lines[None], [5]))
        tracker = RetentionTracker(device, TRET)
        report = tracker.decay(TRET * 2)
        assert any(e.bank == 0 and e.row == 5 for e in report.corrupted)

    def test_decay_drives_cells_to_discharged_pattern(self, device, codec):
        rng = np.random.default_rng(1)
        lines = rng.integers(0, 2**64, size=(device.geometry.lines_per_row, 8),
                             dtype=np.uint64)
        device.populate_rows([0], [40],  # anti row (32..63)
                             codec.encode_rows(lines[None], [40]))
        assert device.anti[0, 40]
        tracker = RetentionTracker(device, TRET)
        tracker.decay(TRET * 2)
        # anti row decays to all-one stored bits
        assert (device.data[0, 40] == np.uint64(0xFFFFFFFFFFFFFFFF)).all()

    def test_decayed_row_reads_back_wrong(self, device, codec):
        """Corruption is visible through the codec round trip."""
        rng = np.random.default_rng(2)
        lines = rng.integers(0, 2**64, size=(device.geometry.lines_per_row, 8),
                             dtype=np.uint64)
        device.populate_rows([0], [5], codec.encode_rows(lines[None], [5]))
        tracker = RetentionTracker(device, TRET)
        tracker.decay(TRET * 2)
        decoded = codec.decode_rows(device.data[0, 5][None], [5])[0]
        assert not np.array_equal(decoded, lines)


class TestIntegrityWithEngine:
    def _populate(self, device, codec, rng, zero_fraction=0.5):
        geom = device.geometry
        banks, rows = np.divmod(np.arange(geom.total_rows), geom.rows_per_bank)
        lines = np.zeros((geom.total_rows, geom.lines_per_row, 8),
                         dtype=np.uint64)
        for i in range(geom.total_rows):
            if rng.random() >= zero_fraction:
                lines[i] = rng.integers(0, 2**64, size=lines.shape[1:],
                                        dtype=np.uint64)
        device.populate_rows(banks, rows, codec.encode_rows(lines, rows))

    def test_zero_refresh_never_loses_data(self, device, codec):
        """End-to-end invariant: skipping must never corrupt memory."""
        rng = np.random.default_rng(3)
        self._populate(device, codec, rng)
        engine = RefreshEngine(device)
        tracker = RetentionTracker(device, engine.timing.tret_s)
        t = 0.0
        for _ in range(4):
            engine.run_window(t)
            t += engine.timing.tret_s
            report = tracker.decay(t)
            assert not report.data_loss

    def test_forced_skip_of_charged_rows_corrupts(self, device, codec):
        """Failure injection: lying in the status table loses data."""
        rng = np.random.default_rng(4)
        self._populate(device, codec, rng, zero_fraction=0.0)
        engine = RefreshEngine(device)
        engine.run_window(0.0)
        # Corrupt the tracker: claim every group is discharged.
        for bank in range(device.geometry.num_banks):
            engine.status_table.write_vector(
                bank, 0, np.ones(device.geometry.rows_per_ar, dtype=bool)
            )
        t = engine.timing.tret_s
        engine.run_window(t)
        tracker = RetentionTracker(device, engine.timing.tret_s)
        report = tracker.decay(t + engine.timing.tret_s)
        assert report.data_loss


class TestRankScanMatchesBankScan:
    """The tracker scans the rank's arrays once; it must leave what a
    scan of one bank at a time left, in the same order."""

    @staticmethod
    def bank_by_bank(device, time_s):
        """The per-bank decay: each bank's overdue slices, the
        reference detector, then every slice in (row, chip) order."""
        overdue, corrupted = [], []
        for b in range(device.geometry.num_banks):
            late = time_s - device.last_refresh[b] > TRET * (1.0 + 1e-9)
            pairs = np.argwhere(late)
            if not len(pairs):
                continue
            per_chip = reference.discharged_per_chip(device, b, pairs[:, 0])
            for (row, chip), discharged_row in zip(pairs.tolist(), per_chip):
                overdue.append((b, row, chip))
                if not discharged_row[chip]:
                    corrupted.append((b, row, chip))
                device.data[b, row, chip] = (np.iinfo(np.uint64).max
                                             if device.anti[b, row] else 0)
                device.last_refresh[b, row, chip] = time_s
        return overdue, corrupted

    @pytest.mark.parametrize("seed", range(3))
    def test_decay_matches_the_bank_scan(self, geom, seed):
        def build():
            device = DramDevice(geom, layouts=[
                CellTypeLayout(32, phase=b % 2) for b in range(geom.num_banks)])
            rng = np.random.default_rng(seed)
            device.data[...] = discharged_value(
                device.anti, device.data.dtype)[..., None, None, None]
            charged = rng.random(device.data.shape[:3]) < 0.05
            device.data[charged, 0, 0] ^= np.uint64(4)
            device.last_refresh[...] = rng.choice([0.0, TRET],
                                                  size=device.last_refresh.shape)
            for bank, row in rng.integers(0, [geom.num_banks, 128], size=(6, 2)):
                device.spared[bank, row] = True
            return device

        device, twin = build(), build()
        tracker = RetentionTracker(device, TRET)
        assert not tracker.verify_no_loss(TRET * 1.5)
        overdue = tracker.overdue(TRET * 1.5)
        report = tracker.decay(TRET * 1.5)
        want_overdue, want_corrupted = self.bank_by_bank(twin, TRET * 1.5)
        assert overdue == want_overdue
        assert report.overdue_slices == len(want_overdue)
        assert [(e.bank, e.row, e.chip) for e in report.corrupted] == want_corrupted
        np.testing.assert_array_equal(device.data, twin.data)
        np.testing.assert_array_equal(device.last_refresh, twin.last_refresh)
        assert tracker.verify_no_loss(TRET * 1.5)
