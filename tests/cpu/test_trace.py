"""Tests for the program-trace format and trace-driven driver."""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.zero_refresh import ZeroRefreshSystem
from repro.cpu.trace import ProgramTrace, TraceDrivenDriver
from repro.workloads.benchmarks import benchmark_profile


class TestProgramTrace:
    def test_generate_shapes(self):
        rng = np.random.default_rng(0)
        trace = ProgramTrace.generate(np.arange(50), 1000, num_cores=4,
                                      rng=rng)
        assert len(trace) == 1000
        assert trace.num_cores == 4
        assert (trace.line_addr // 64 < 50).all()

    def test_write_fraction(self):
        rng = np.random.default_rng(1)
        trace = ProgramTrace.generate(np.arange(10), 20_000,
                                      write_fraction=0.3, rng=rng)
        assert trace.is_write.mean() == pytest.approx(0.3, abs=0.02)

    def test_slice(self):
        rng = np.random.default_rng(2)
        trace = ProgramTrace.generate(np.arange(10), 100, rng=rng)
        part = trace.slice(10, 20)
        assert len(part) == 10
        np.testing.assert_array_equal(part.line_addr, trace.line_addr[10:20])

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        trace = ProgramTrace.generate(np.arange(10), 500, rng=rng)
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = ProgramTrace.load(path)
        np.testing.assert_array_equal(loaded.core, trace.core)
        np.testing.assert_array_equal(loaded.line_addr, trace.line_addr)
        np.testing.assert_array_equal(loaded.is_write, trace.is_write)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            ProgramTrace(np.zeros(2, dtype=np.int8), np.zeros(3),
                         np.zeros(3, dtype=bool))


class TestTraceDrivenDriver:
    @pytest.fixture
    def system(self):
        config = SystemConfig.scaled(total_bytes=4 << 20, rows_per_ar=32,
                                     seed=0)
        system = ZeroRefreshSystem(config)
        system.populate(benchmark_profile("gcc"), allocated_fraction=1.0,
                        accesses_per_window=0)
        return system

    def test_replay_reaches_dram(self, system):
        driver = TraceDrivenDriver(system)
        rng = np.random.default_rng(4)
        pages = system.allocator.allocated_pages[:32]
        trace = ProgramTrace.generate(pages, 3000, rng=rng)
        driver.replay(trace)
        assert driver.dram_reads > 0

    def test_run_produces_refresh_stats(self, system):
        driver = TraceDrivenDriver(system)
        rng = np.random.default_rng(5)
        pages = system.allocator.allocated_pages[:32]
        trace = ProgramTrace.generate(pages, 2000, rng=rng)
        stats = driver.run(trace, n_windows=2)
        assert stats.windows == 2
        assert stats.groups_total > 0

    def test_cache_filtering_reduces_dram_traffic(self, system):
        """Hot accesses must mostly hit in cache: far fewer DRAM events
        than trace accesses."""
        driver = TraceDrivenDriver(system)
        rng = np.random.default_rng(6)
        pages = system.allocator.allocated_pages[:4]  # tiny hot set
        trace = ProgramTrace.generate(pages, 10_000, rng=rng)
        driver.replay(trace)
        dram_events = driver.dram_reads + driver.dram_writes
        assert dram_events < len(trace) * 0.2

    @pytest.mark.parametrize("accesses, windows", [(4000, 3), (5, 8)])
    def test_run_replays_every_access(self, system, accesses, windows):
        """The last window takes what an uneven split leaves over."""
        driver = TraceDrivenDriver(system)
        rng = np.random.default_rng(8)
        pages = system.allocator.allocated_pages[:64]
        trace = ProgramTrace.generate(pages, accesses, rng=rng)
        stats = driver.run(trace, n_windows=windows)
        assert stats.windows == windows
        assert sum(l1.hits + l1.misses
                   for l1 in driver.hierarchy.l1) == accesses

    @pytest.mark.parametrize("windows", [0, -1])
    def test_run_rejects_window_count_below_one(self, system, windows):
        driver = TraceDrivenDriver(system)
        rng = np.random.default_rng(9)
        trace = ProgramTrace.generate(system.allocator.allocated_pages[:4],
                                      10, rng=rng)
        with pytest.raises(ValueError, match="n_windows"):
            driver.run(trace, n_windows=windows)

    def test_integrity_preserved(self, system):
        driver = TraceDrivenDriver(system)
        rng = np.random.default_rng(7)
        pages = system.allocator.allocated_pages[:64]
        trace = ProgramTrace.generate(pages, 4000, rng=rng)
        driver.run(trace, n_windows=3)
        assert system.verify_integrity()
