"""Tests for the refresh engine, staggered counters and skip protocol."""

import numpy as np
import pytest

from repro.dram.device import DramDevice, LineWrites
from repro.dram.geometry import DramGeometry
from repro.dram.refresh import RefreshCounters, RefreshEngine, RefreshStats
from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import ValueTransformCodec


@pytest.fixture
def geom():
    return DramGeometry(rows_per_bank=256, rows_per_ar=128, cell_interleave=64)


@pytest.fixture
def layout():
    return CellTypeLayout(interleave=64)


@pytest.fixture
def device(geom, layout):
    return DramDevice(geom, layout)


@pytest.fixture
def codec(geom, layout):
    predictor = CellTypePredictor.from_layout(layout, geom.rows_per_bank)
    return ValueTransformCodec(predictor)


def populate_zero(device, codec):
    geom = device.geometry
    banks, rows = np.divmod(np.arange(geom.total_rows), geom.rows_per_bank)
    lines = np.zeros((geom.total_rows, geom.lines_per_row, geom.words_per_line),
                     dtype=np.uint64)
    device.populate_rows(banks, rows, codec.encode_rows(lines, rows))


def write_line(device, codec, bank, row, line_in_row, line, time_s):
    """One line's write at ``time_s``."""
    device.write_lines(LineWrites(np.array([bank]), np.array([row]),
                                  np.array([line_in_row]),
                                  codec.encode_row(line, row)), time_s)


class TestRefreshCounters:
    def test_initial_rows_are_chip_numbers(self):
        counters = RefreshCounters(num_chips=4)
        np.testing.assert_array_equal(counters.rows_for_step(0), [0, 1, 2, 3])

    def test_stagger_rotates_within_block(self):
        counters = RefreshCounters(num_chips=4)
        np.testing.assert_array_equal(counters.rows_for_step(1), [1, 2, 3, 0])
        np.testing.assert_array_equal(counters.rows_for_step(3), [3, 0, 1, 2])

    def test_blocks_advance_by_num_chips(self):
        counters = RefreshCounters(num_chips=4)
        np.testing.assert_array_equal(counters.rows_for_step(4), [4, 5, 6, 7])
        np.testing.assert_array_equal(counters.rows_for_step(5), [5, 6, 7, 4])

    def test_every_chip_covers_every_row_once(self):
        counters = RefreshCounters(num_chips=8)
        rows = counters.rows_for_steps(np.arange(64))  # (8, 64)
        for chip in range(8):
            assert sorted(rows[chip]) == list(range(64))

    def test_unstaggered_counters(self):
        counters = RefreshCounters(num_chips=4, staggered=False)
        np.testing.assert_array_equal(counters.rows_for_step(5), [5, 5, 5, 5])

    def test_step_of_row_inverts(self):
        counters = RefreshCounters(num_chips=8)
        for chip in range(8):
            for row in range(32):
                step = counters.step_of_row(chip, row)
                assert counters.rows_for_step(step)[chip] == row

    def test_vectorised_matches_scalar(self):
        counters = RefreshCounters(num_chips=8)
        steps = np.arange(40)
        matrix = counters.rows_for_steps(steps)
        for i, step in enumerate(steps):
            np.testing.assert_array_equal(matrix[:, i], counters.rows_for_step(step))


class TestConventionalMode:
    def test_refreshes_everything(self, device):
        engine = RefreshEngine(device, mode="conventional")
        stats = engine.run_window(0.0)
        geom = device.geometry
        assert stats.groups_refreshed == geom.total_rows
        assert stats.groups_skipped == 0
        assert stats.ar_commands == geom.num_banks * geom.ar_sets_per_bank

    def test_normalized_refresh_is_one(self, device):
        engine = RefreshEngine(device, mode="conventional")
        stats = engine.run_window(0.0)
        assert stats.normalized_refresh() == 1.0


class TestZeroRefreshMode:
    def test_first_window_is_all_dirty(self, device, codec):
        populate_zero(device, codec)
        engine = RefreshEngine(device)
        stats = engine.run_window(0.0)
        assert stats.dirty_ars == stats.ar_commands
        assert stats.groups_skipped == 0

    def test_second_window_skips_zero_memory(self, device, codec):
        populate_zero(device, codec)
        engine = RefreshEngine(device)
        engine.run_window(0.0)
        stats = engine.run_window(engine.timing.tret_s)
        assert stats.groups_refreshed == 0
        assert stats.groups_skipped == device.geometry.total_rows
        assert stats.normalized_refresh() == 0.0

    def test_write_dirties_only_its_set(self, device, codec, geom):
        populate_zero(device, codec)
        engine = RefreshEngine(device)
        engine.run_window(0.0)
        # Write a random line into bank 0, row 5 (AR set 0).
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 2**64, size=(1, 8), dtype=np.uint64)
        write_line(device, codec, 0, 5, 3, lines, engine.timing.tret_s)
        stats = engine.run_window(engine.timing.tret_s)
        assert stats.dirty_ars == 1
        # the dirty AR refreshes its full 128 groups
        assert stats.groups_refreshed == geom.rows_per_ar

    def test_charged_line_costs_its_diagonal_groups(self, device, codec, geom):
        """After re-derivation, a single fully-random line keeps exactly
        num_chips groups charged (its words, one per chip diagonal)."""
        populate_zero(device, codec)
        engine = RefreshEngine(device)
        engine.run_window(0.0)
        rng = np.random.default_rng(1)
        lines = rng.integers(0, 2**64, size=(1, 8), dtype=np.uint64)
        write_line(device, codec, 0, 5, 3, lines, engine.timing.tret_s)
        engine.run_window(engine.timing.tret_s)  # dirty pass re-derives
        stats = engine.run_window(2 * engine.timing.tret_s)
        assert stats.groups_refreshed == geom.num_chips
        assert stats.dirty_ars == 0

    def test_zero_value_write_stays_skippable(self, device, codec):
        """Writing zeros (e.g. OS page cleansing) keeps the set skippable
        after one re-derivation pass."""
        populate_zero(device, codec)
        engine = RefreshEngine(device)
        engine.run_window(0.0)
        lines = np.zeros((1, 8), dtype=np.uint64)
        write_line(device, codec, 0, 5, 3, lines, engine.timing.tret_s)
        engine.run_window(engine.timing.tret_s)
        stats = engine.run_window(2 * engine.timing.tret_s)
        assert stats.groups_refreshed == 0

    def test_status_accesses_counted(self, device, codec, geom):
        populate_zero(device, codec)
        engine = RefreshEngine(device)
        s1 = engine.run_window(0.0)
        assert s1.status_writes == geom.num_banks * geom.ar_sets_per_bank
        assert s1.status_reads == 0
        s2 = engine.run_window(engine.timing.tret_s)
        assert s2.status_reads == geom.num_banks * geom.ar_sets_per_bank
        assert s2.status_writes == 0

    def test_random_content_never_skipped(self, device, codec, geom):
        rng = np.random.default_rng(7)
        banks, rows = np.divmod(np.arange(geom.total_rows), geom.rows_per_bank)
        lines = rng.integers(0, 2**64,
                             size=(geom.total_rows, geom.lines_per_row, 8),
                             dtype=np.uint64)
        device.populate_rows(banks, rows, codec.encode_rows(lines, rows))
        engine = RefreshEngine(device)
        engine.run_window(0.0)
        stats = engine.run_window(engine.timing.tret_s)
        assert stats.groups_skipped == 0


class TestNaiveMode:
    def test_naive_tracker_skips_like_optimised(self, geom, layout, codec):
        device = DramDevice(geom, layout)
        engine = RefreshEngine(device, mode="naive")
        populate_zero(device, codec)
        stats = engine.run_window(0.0)
        # naive tracking is per-write: skipping starts immediately
        assert stats.groups_skipped == geom.total_rows
        assert engine.naive_tracker.updates == geom.total_rows

    def test_rejects_unknown_mode(self, device):
        with pytest.raises(ValueError, match="mode"):
            RefreshEngine(device, mode="bogus")


class TestRunWindow:
    def test_window_covers_all_sets(self, device, geom):
        engine = RefreshEngine(device, mode="conventional")
        stats = engine.run_window(0.0)
        assert stats.ar_commands == geom.num_banks * geom.ar_sets_per_bank
        assert stats.windows == 1

    def test_slots_are_monotonic_within_the_window(self, device):
        for policy in ("per-bank", "all-bank"):
            engine = RefreshEngine(device, mode="conventional", policy=policy)
            slots = engine.slot_times(1.0).ravel()
            assert slots[0] == 1.0
            assert (np.diff(slots) >= 0).all()
            assert slots[-1] < 1.0 + engine.timing.tret_s

    def test_place_stamps_the_preceding_slot(self, device):
        engine = RefreshEngine(device, mode="conventional")
        slots = engine.slot_times(0.0).ravel()
        tret = engine.timing.tret_s
        span, stamp = engine.place(0.0, [0.0, slots[3], slots[3] - 1e-12,
                                         tret - 1e-12, tret])
        # an access exactly at a slot lands after that slot's command
        np.testing.assert_array_equal(span, [1, 4, 3, len(slots), -1])
        np.testing.assert_array_equal(stamp[:4], [slots[0], slots[3],
                                                  slots[2], slots[-1]])

    def test_posted_write_lands_on_its_side_of_the_set_ar(self, device, codec,
                                                          geom):
        """A write before its set's AR dirties the set this window; one
        at or after the AR raises the access bit for the next window."""
        populate_zero(device, codec)
        engine = RefreshEngine(device)
        t0 = engine.timing.tret_s
        engine.run_window(0.0)
        slots = engine.slot_times(t0)
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 2**64, size=(1, 8), dtype=np.uint64)

        def post(bank, row, t):
            engine.post_writes(
                LineWrites(np.array([bank]), np.array([row]), np.array([0]),
                           codec.encode_row(lines, row)),
                np.array([t]))

        post(0, geom.rows_per_ar + 5, slots[1, 0] - 1e-9)  # before (0, 1)
        post(1, 5, slots[0, 1])  # at the slot of (1, 0): after it
        first = engine.run_window(t0)
        assert first.dirty_ars == 1
        assert engine.access_bits.peek(1, 0)
        second = engine.run_window(2 * t0)
        assert second.dirty_ars == 1
        assert device.last_refresh[1, 5].min() >= slots[0, 1]

    def test_run_window_takes_no_write_hook(self, device):
        engine = RefreshEngine(device, mode="conventional")
        with pytest.raises(TypeError, match="post_writes"):
            engine.run_window(0.0, lambda t0, t1: None)

    def test_stats_accumulate_across_windows(self, device):
        engine = RefreshEngine(device, mode="conventional")
        engine.run_window(0.0)
        engine.run_window(engine.timing.tret_s)
        assert engine.stats.windows == 2
        assert engine.stats.groups_refreshed == 2 * device.geometry.total_rows


class TestRefreshStats:
    def test_reduction_math(self):
        stats = RefreshStats(groups_refreshed=30, groups_skipped=70)
        assert stats.normalized_refresh() == pytest.approx(0.3)
        assert stats.reduction() == pytest.approx(0.7)

    def test_empty_stats_normalize_to_one(self):
        assert RefreshStats().normalized_refresh() == 1.0

    def test_merge(self):
        a = RefreshStats(ar_commands=1, groups_refreshed=10, windows=1)
        b = RefreshStats(ar_commands=2, groups_skipped=5, windows=1)
        merged = a.merged_with(b)
        assert merged.ar_commands == 3
        assert merged.groups_refreshed == 10
        assert merged.groups_skipped == 5
        assert merged.windows == 2
