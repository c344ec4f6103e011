"""Property-based tests on refresh-schedule invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.refresh import RefreshCounters, RefreshEngine
from repro.transform.celltype import CellTypeLayout


class TestCounterProperties:
    @settings(max_examples=50)
    @given(num_chips=st.sampled_from([2, 4, 8, 16]),
           blocks=st.integers(min_value=1, max_value=8))
    def test_full_coverage_per_chip(self, num_chips, blocks):
        """Over a whole schedule every chip refreshes every row exactly
        once — staggering permutes, never drops."""
        counters = RefreshCounters(num_chips)
        steps = np.arange(blocks * num_chips)
        rows = counters.rows_for_steps(steps)
        for chip in range(num_chips):
            assert sorted(rows[chip].tolist()) == list(range(len(steps)))

    @settings(max_examples=50)
    @given(num_chips=st.sampled_from([2, 4, 8]),
           step=st.integers(min_value=0, max_value=1000))
    def test_group_is_diagonal_permutation(self, num_chips, step):
        """Each step's rows are a permutation within one block."""
        counters = RefreshCounters(num_chips)
        rows = counters.rows_for_step(step)
        block = (step // num_chips) * num_chips
        assert sorted(rows.tolist()) == list(range(block, block + num_chips))

    @settings(max_examples=50)
    @given(num_chips=st.sampled_from([4, 8]),
           chip=st.integers(min_value=0, max_value=7),
           row=st.integers(min_value=0, max_value=500))
    def test_step_of_row_is_inverse(self, num_chips, chip, row):
        counters = RefreshCounters(num_chips)
        chip = chip % num_chips
        step = counters.step_of_row(chip, row)
        assert counters.rows_for_step(step)[chip] == row


class TestScheduleInvariants:
    def _engine(self, mode="conventional"):
        geom = DramGeometry(rows_per_bank=64, rows_per_ar=32,
                            cell_interleave=16)
        device = DramDevice(geom, CellTypeLayout(interleave=16))
        return RefreshEngine(device, mode=mode)

    def test_conventional_recharges_every_slice(self):
        """After one window every (bank, row, chip) slice is fresh."""
        engine = self._engine()
        engine.run_window(1.0)
        assert (engine.device.last_refresh >= 1.0).all()

    def test_window_work_is_conserved(self):
        """groups_refreshed + groups_skipped == total rows, per window,
        in every mode."""
        for mode in ("conventional", "zero-refresh", "naive"):
            engine = self._engine(mode)
            stats = engine.run_window(0.0)
            assert stats.groups_total == engine.geometry.total_rows

    def test_skipped_rows_keep_no_charge_obligation(self):
        """Every slice is either recharged this window or discharged."""
        engine = self._engine("zero-refresh")
        engine.run_window(0.0)
        stats = engine.run_window(1.0)
        assert stats.groups_skipped > 0  # boot-state true rows skip
        geom = engine.geometry
        device = engine.device
        per_chip = device.detect_discharged_per_chip(
            np.arange(geom.num_banks)[:, None], np.arange(geom.rows_per_bank))
        stale = device.last_refresh < 1.0
        assert (per_chip | ~stale).all()
