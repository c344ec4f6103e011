"""Tests for the hybrid (charge + recency) refresh engine extension."""

import numpy as np
import pytest

from repro.baselines.hybrid import HybridRefreshEngine
from repro.core.config import SystemConfig
from repro.core.zero_refresh import ZeroRefreshSystem
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.retention import RetentionTracker
from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import ValueTransformCodec
from repro.workloads.benchmarks import benchmark_profile


@pytest.fixture
def geom():
    return DramGeometry(rows_per_bank=64, rows_per_ar=32, cell_interleave=16)


@pytest.fixture
def parts(geom):
    layout = CellTypeLayout(interleave=16)
    device = DramDevice(geom, layout)
    predictor = CellTypePredictor.from_layout(layout, geom.rows_per_bank)
    codec = ValueTransformCodec(predictor)
    return device, codec


def populate_random(device, codec, seed=0):
    geom = device.geometry
    rng = np.random.default_rng(seed)
    banks, rows = np.divmod(np.arange(geom.total_rows), geom.rows_per_bank)
    lines = rng.integers(0, 2**64, size=(geom.total_rows, geom.lines_per_row, 8),
                         dtype=np.uint64)
    device.populate_rows(banks, rows, codec.encode_rows(lines, rows))


def read_rows(device, rows, time_s):
    """Demand reads of line 0 of ``rows`` of bank 0: row activations."""
    rows = np.asarray(rows)
    zeros = np.zeros_like(rows)
    device.read_lines(zeros, rows, zeros, time_s)


class TestHybridEngine:
    def test_recency_skips_charged_rows(self, parts, geom):
        """Random (never-skippable) content still skips when the whole
        block was activated this window."""
        device, codec = parts
        populate_random(device, codec)
        engine = HybridRefreshEngine(device)
        engine.run_window(0.0)
        base = engine.run_window(engine.timing.tret_s)
        assert base.groups_skipped == 0  # pure charge-awareness: nothing
        # activate every row of bank 0 (e.g. a streaming scan)
        read_rows(device, np.arange(geom.rows_per_bank),
                  2 * engine.timing.tret_s)
        stats = engine.run_window(2 * engine.timing.tret_s)
        assert stats.groups_skipped == geom.rows_per_bank
        assert engine.recency_skips == geom.rows_per_bank

    def test_partial_block_activation_does_not_skip(self, parts, geom):
        """Group granularity: one stale row in a diagonal blocks the skip."""
        device, codec = parts
        populate_random(device, codec)
        engine = HybridRefreshEngine(device)
        engine.run_window(0.0)
        # touch 7 of the 8 rows of the first block
        read_rows(device, np.arange(geom.num_chips - 1), engine.timing.tret_s)
        stats = engine.run_window(engine.timing.tret_s)
        assert stats.groups_skipped == 0

    def test_recency_decays_after_one_window(self, parts, geom):
        device, codec = parts
        populate_random(device, codec)
        engine = HybridRefreshEngine(device)
        engine.run_window(0.0)
        read_rows(device, np.arange(geom.rows_per_bank), engine.timing.tret_s)
        engine.run_window(engine.timing.tret_s)
        stats = engine.run_window(2 * engine.timing.tret_s)
        assert stats.groups_skipped == 0

    def test_integrity_with_guard_band(self, parts, geom):
        """With retention = 2x the window (the hybrid's precondition),
        recency skipping never loses data."""
        device, codec = parts
        populate_random(device, codec)
        engine = HybridRefreshEngine(device)
        tracker = RetentionTracker(device, 2 * engine.timing.tret_s)
        t = 0.0
        for i in range(4):
            read_rows(device, np.arange(geom.rows_per_bank), t + 0.001)
            engine.run_window(t)
            t += engine.timing.tret_s
            assert not tracker.decay(t).data_loss

    def test_violation_without_guard_band(self, parts, geom):
        """A single burst of activations, then silence: the skipped
        refresh stretches the recharge gap past one window.  Unsound
        without the retention margin; sound with it."""
        device, codec = parts
        populate_random(device, codec)
        engine = HybridRefreshEngine(device)
        window = engine.timing.tret_s
        engine.run_window(0.0)
        # A late burst of activations in window 1...
        read_rows(device, np.arange(geom.rows_per_bank), 0.99 * window)
        # ...lets window 2 skip those rows for recency.  Their recharge
        # gap now runs from 0.99 W to their window-3 slot: > 1 window.
        engine.run_window(window)
        now = 2 * window
        assert RetentionTracker(device, 2 * window).verify_no_loss(now)
        assert not RetentionTracker(device, window).verify_no_loss(now)


class TestHybridSystem:
    def test_hybrid_mode_at_least_as_good(self):
        results = {}
        for mode in ("zero-refresh", "hybrid"):
            config = SystemConfig.scaled(total_bytes=8 << 20, rows_per_ar=32,
                                         seed=3, refresh_mode=mode)
            system = ZeroRefreshSystem(config)
            system.populate(benchmark_profile("mcf"),
                            working_set_fraction=0.2, write_fraction=0.1)
            results[mode] = system.run_windows(3)
            assert system.verify_integrity()
        assert (results["hybrid"].normalized_refresh
                <= results["zero-refresh"].normalized_refresh + 0.01)

    def test_hybrid_retention_tracker_uses_guard_band(self):
        config = SystemConfig.scaled(total_bytes=8 << 20, rows_per_ar=32,
                                     refresh_mode="hybrid")
        system = ZeroRefreshSystem(config)
        assert system.retention.tret_s == pytest.approx(
            2 * config.timing.tret_s
        )
