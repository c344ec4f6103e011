"""Tests for the all-bank AR policy (Sec. IV-A alternative)."""

import numpy as np
import pytest

from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.refresh import RefreshEngine
from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import ValueTransformCodec


@pytest.fixture
def geom():
    return DramGeometry(rows_per_bank=128, rows_per_ar=32, cell_interleave=32)


@pytest.fixture
def layout():
    return CellTypeLayout(interleave=32)


def populate(device, codec, pattern="zero", seed=0):
    geom = device.geometry
    rng = np.random.default_rng(seed)
    banks, rows = np.divmod(np.arange(geom.total_rows), geom.rows_per_bank)
    shape = (geom.total_rows, geom.lines_per_row, 8)
    lines = (np.zeros(shape, dtype=np.uint64) if pattern == "zero" else
             rng.integers(0, 2**64, size=shape, dtype=np.uint64))
    device.populate_rows(banks, rows, codec.encode_rows(lines, rows))


class TestAllBankPolicy:
    def test_rejects_unknown_policy(self, geom, layout):
        device = DramDevice(geom, layout)
        with pytest.raises(ValueError, match="policy"):
            RefreshEngine(device, policy="per-chip")

    def test_same_refresh_counts_as_per_bank(self, geom, layout):
        predictor = CellTypePredictor.from_layout(layout, geom.rows_per_bank)
        results = {}
        for policy in ("per-bank", "all-bank"):
            device = DramDevice(geom, layout)
            codec = ValueTransformCodec(predictor)
            populate(device, codec, "zero")
            engine = RefreshEngine(device, policy=policy)
            engine.run_window(0.0)
            stats = engine.run_window(engine.timing.tret_s)
            results[policy] = stats
        assert (results["per-bank"].groups_refreshed
                == results["all-bank"].groups_refreshed)
        assert (results["per-bank"].groups_skipped
                == results["all-bank"].groups_skipped)

    def test_all_bank_busy_is_worst_bank(self, geom, layout):
        """Charge one bank: all-bank pays that bank's work in every bank."""
        predictor = CellTypePredictor.from_layout(layout, geom.rows_per_bank)
        device = DramDevice(geom, layout)
        codec = ValueTransformCodec(predictor)
        populate(device, codec, "zero")
        # make bank 3 fully charged (random content)
        rng = np.random.default_rng(1)
        rows = np.arange(geom.rows_per_bank)
        lines = rng.integers(0, 2**64, size=(len(rows), geom.lines_per_row, 8),
                             dtype=np.uint64)
        device.populate_rows(np.full_like(rows, 3), rows,
                             codec.encode_rows(lines, rows))
        engine = RefreshEngine(device, policy="all-bank")
        engine.run_window(0.0)
        stats = engine.run_window(engine.timing.tret_s)
        # refreshed: only bank 3's rows; busy: rank blocked as if all 8
        # banks did bank 3's work
        assert stats.groups_refreshed == geom.rows_per_bank
        assert stats.rank_busy_groups == geom.rows_per_bank * geom.num_banks
        assert stats.normalized_busy() > stats.normalized_refresh()

    def test_per_bank_busy_equals_refreshed(self, geom, layout):
        device = DramDevice(geom, layout)
        engine = RefreshEngine(device, mode="conventional")
        stats = engine.run_window(0.0)
        assert stats.rank_busy_groups == stats.groups_refreshed

    def test_conventional_all_bank_busy_equals_total(self, geom, layout):
        device = DramDevice(geom, layout)
        engine = RefreshEngine(device, mode="conventional", policy="all-bank")
        stats = engine.run_window(0.0)
        assert stats.rank_busy_groups == geom.total_rows
        assert stats.normalized_busy() == 1.0
