"""Tests for the ZeroRefreshSystem orchestrator."""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.zero_refresh import ZeroRefreshSystem
from repro.workloads.benchmarks import benchmark_profile


def make_system(seed=0, **overrides):
    config = SystemConfig.scaled(total_bytes=8 << 20, rows_per_ar=32,
                                 seed=seed, **overrides)
    return ZeroRefreshSystem(config)


class TestPopulate:
    def test_allocated_fraction_respected(self):
        system = make_system()
        system.populate(benchmark_profile("gcc"), allocated_fraction=0.5)
        assert system.allocator.allocated_fraction == pytest.approx(0.5,
                                                                    abs=0.07)

    def test_zero_fill_matches_codec_path(self):
        """The closed-form idle-page zero fill must equal the batched
        encode of zero lines."""
        system = make_system()
        system.populate(benchmark_profile("gcc"), allocated_fraction=0.5)
        banks, rows = system.controller.mapper.page_rows(
            system.allocator.free_pages)
        banks, rows = np.ravel(banks), np.ravel(rows)
        anti = system.predictor.predict_anti(rows)
        assert anti.any() and not anti.all()
        geometry = system.config.geometry
        zero = np.zeros((len(rows), geometry.lines_per_row,
                         geometry.words_per_line), dtype=np.uint64)
        stored = system.device.data[banks, rows]
        np.testing.assert_array_equal(stored,
                                      system.codec.encode_rows(zero, rows))

    def test_page_content_reads_back(self):
        system = make_system()
        system.populate(benchmark_profile("mcf"), allocated_fraction=1.0)
        page = int(system.allocator.allocated_pages[5])
        data = system.read_page(page)
        assert data.shape == (64, 8)

    def test_free_pages_read_back_zero(self):
        system = make_system()
        system.populate(benchmark_profile("mcf"), allocated_fraction=0.3)
        page = int(system.allocator.free_pages[0])
        assert not system.read_page(page).any()


class TestRunWindows:
    def test_conventional_mode_never_skips(self):
        system = make_system(refresh_mode="conventional")
        system.populate(benchmark_profile("gemsFDTD"))
        result = system.run_windows(2)
        assert result.normalized_refresh == 1.0

    def test_zero_refresh_beats_conventional(self):
        system = make_system()
        system.populate(benchmark_profile("gemsFDTD"))
        result = system.run_windows(2)
        assert result.normalized_refresh < 0.8

    def test_idle_memory_increases_reduction(self):
        reductions = {}
        for fraction in (1.0, 0.28):
            system = make_system(seed=3)
            system.populate(benchmark_profile("mcf"),
                            allocated_fraction=fraction)
            reductions[fraction] = system.run_windows(2).refresh_reduction
        assert reductions[0.28] > reductions[1.0] + 0.2

    def test_integrity_after_run(self):
        system = make_system(seed=1)
        system.populate(benchmark_profile("bzip2"))
        system.run_windows(3)
        assert system.verify_integrity()

    def test_written_data_survives_refresh_skipping(self):
        """End-to-end data integrity: everything written reads back."""
        system = make_system(seed=2)
        profile = benchmark_profile("sphinx3")
        system.populate(profile, allocated_fraction=0.6)
        rng = np.random.default_rng(0)
        page = int(system.allocator.allocated_pages[3])
        lines = rng.integers(0, 2**64, size=(64, 8), dtype=np.uint64)
        system.controller.populate_pages([page], lines[None], system.time_s,
                                         notify=True)
        system.run_windows(3)
        np.testing.assert_array_equal(system.read_page(page), lines)

    def test_result_fields(self):
        system = make_system()
        system.populate(benchmark_profile("lbm"))
        result = system.run_windows(2)
        assert result.benchmark == "lbm"
        assert result.ipc is not None
        assert 0 < result.normalized_energy
        assert "lbm" in result.summary()

    def test_energy_trails_refresh_reduction(self):
        system = make_system(seed=4)
        system.populate(benchmark_profile("gemsFDTD"))
        result = system.run_windows(3)
        assert result.normalized_energy >= result.normalized_refresh
        assert result.normalized_energy - result.normalized_refresh < 0.08

    def test_ipc_improves_with_skipping(self):
        system = make_system(seed=5)
        system.populate(benchmark_profile("gemsFDTD"))
        result = system.run_windows(2)
        assert result.ipc.normalized_ipc > 1.0


class TestModes:
    def test_naive_mode_runs(self):
        system = make_system(refresh_mode="naive")
        system.populate(benchmark_profile("gcc"))
        result = system.run_windows(2)
        assert result.normalized_refresh < 1.0
        assert system.engine.naive_tracker is not None

    def test_celltype_errors_reduce_benefit_not_correctness(self):
        exact = make_system(seed=6)
        noisy = make_system(seed=6, celltype_error_rate=0.3)
        for system in (exact, noisy):
            system.populate(benchmark_profile("sphinx3"))
        r_exact = exact.run_windows(2)
        r_noisy = noisy.run_windows(2)
        assert r_noisy.normalized_refresh > r_exact.normalized_refresh
        page = int(noisy.allocator.allocated_pages[0])
        assert noisy.read_page(page).shape == (64, 8)
        assert noisy.verify_integrity()
