"""Cross-module integration tests.

These exercise whole paths through the system: program accesses ->
cache hierarchy -> memory controller -> value transformation -> DRAM ->
refresh engine -> energy/IPC models, asserting properties no single
module can guarantee alone.
"""

import numpy as np
import pytest

from repro.cache.caches import CacheHierarchy
from repro.core.config import SystemConfig
from repro.core.zero_refresh import ZeroRefreshSystem
from repro.dram.retention import RetentionTracker
from repro.workloads.benchmarks import benchmark_profile
from repro.workloads.synthetic import generate_lines


def make_system(seed=0, **overrides):
    config = SystemConfig.scaled(total_bytes=8 << 20, rows_per_ar=32,
                                 seed=seed, **overrides)
    return ZeroRefreshSystem(config)


class TestCacheToDramPath:
    def test_llc_evictions_drive_transformed_writes(self):
        """Traffic filtered through the cache hierarchy lands in DRAM
        transformed and reads back exactly."""
        system = make_system()
        system.populate(benchmark_profile("gcc"), allocated_fraction=1.0,
                        accesses_per_window=0)
        hierarchy = CacheHierarchy(num_cores=1, l1_bytes=1024, l1_ways=2,
                                   llc_bytes_per_core=4096, llc_ways=4)
        rng = np.random.default_rng(1)
        store = {}
        for _ in range(2000):
            addr = int(rng.integers(0, 4096))
            events = hierarchy.access(0, addr, is_write=True)
            for event in events:
                if event.is_write:
                    line = generate_lines("smallint16", 1, rng)[0]
                    store[event.line_addr] = line
                    system.controller.write_lines([event.line_addr],
                                                  line[None])
        for event in hierarchy.drain():
            if event.is_write and event.line_addr not in store:
                store[event.line_addr] = np.zeros(8, dtype=np.uint64)
        assert store, "no writebacks reached memory"
        for addr, line in list(store.items())[:50]:
            np.testing.assert_array_equal(system.controller.read_line(addr),
                                          line)


class TestFullSystemProperties:
    def test_reduction_tracks_analytic_model(self):
        """Measured reduction within 35% relative of the mixture model
        (write traffic and block effects account for the gap)."""
        for name in ("gemsFDTD", "mcf", "omnetpp"):
            system = make_system(seed=2)
            profile = benchmark_profile(name)
            system.populate(profile, allocated_fraction=1.0)
            result = system.run_windows(2)
            analytic = profile.expected_reduction()
            assert result.refresh_reduction == pytest.approx(
                analytic, rel=0.40, abs=0.03
            )

    def test_scenario_additivity(self):
        """Idle pages contribute their full share: reduction(frac) ~
        frac * reduction(1.0) + (1 - frac)."""
        profile = benchmark_profile("milc")
        base_sys = make_system(seed=3)
        base_sys.populate(profile, allocated_fraction=1.0,
                          accesses_per_window=0)
        r_full = base_sys.run_windows(2).refresh_reduction
        part_sys = make_system(seed=3)
        part_sys.populate(profile, allocated_fraction=0.5,
                          accesses_per_window=0)
        r_half = part_sys.run_windows(2).refresh_reduction
        assert r_half == pytest.approx(0.5 * r_full + 0.5, abs=0.05)

    def test_no_data_loss_across_many_windows(self):
        system = make_system(seed=4)
        system.populate(benchmark_profile("sphinx3"), allocated_fraction=0.7)
        tracker = RetentionTracker(system.device, system.config.timing.tret_s)
        for _ in range(6):
            system.run_windows(1, warmup_windows=0)
            assert not tracker.decay(system.time_s).data_loss

    def test_refresh_energy_ipc_consistency(self):
        """More skipping => less energy and more IPC, monotonically."""
        results = []
        for fraction in (1.0, 0.28):
            system = make_system(seed=5)
            system.populate(benchmark_profile("lbm"),
                            allocated_fraction=fraction)
            results.append(system.run_windows(2))
        more_idle, less_idle = results[1], results[0]
        assert more_idle.normalized_refresh < less_idle.normalized_refresh
        assert more_idle.normalized_energy < less_idle.normalized_energy
        assert more_idle.ipc.normalized_ipc > less_idle.ipc.normalized_ipc

    def test_os_free_then_reuse_cycle(self):
        """Free pages become skippable; reallocation revives them."""
        system = make_system(seed=6)
        system.populate(benchmark_profile("gcc"), allocated_fraction=0.8,
                        accesses_per_window=0)
        system.run_windows(1)
        before = system.run_windows(1).refresh_reduction
        # Free a quarter of the allocated pages (OS cleanses them).
        pages = system.allocator.allocated_pages[: system.allocator.total_pages // 4]
        system.allocator.free(pages, system.time_s)
        system.run_windows(1)  # re-derivation window
        after = system.run_windows(1).refresh_reduction
        assert after > before

    def test_conventional_vs_zero_refresh_same_content(self):
        """Both modes store identical data; only refresh work differs."""
        zr = make_system(seed=7)
        conv = make_system(seed=7, refresh_mode="conventional")
        profile = benchmark_profile("hmmer")
        zr.populate(profile, allocated_fraction=1.0, accesses_per_window=0)
        conv.populate(profile, allocated_fraction=1.0, accesses_per_window=0)
        r_zr = zr.run_windows(2)
        r_conv = conv.run_windows(2)
        assert r_conv.normalized_refresh == 1.0
        assert r_zr.normalized_refresh < 1.0
        page = int(zr.allocator.allocated_pages[0])
        np.testing.assert_array_equal(zr.read_page(page),
                                      conv.read_page(page))
