"""Tests for the multi-rank DIMM aggregation."""

import pytest

from repro.core.config import SystemConfig
from repro.core.multirank import MultiRankSystem
from repro.workloads.benchmarks import benchmark_profile


def make_dimm(num_ranks=2, seed=0):
    config = SystemConfig.scaled(total_bytes=4 << 20, rows_per_ar=32,
                                 seed=seed)
    return MultiRankSystem(config, num_ranks=num_ranks)


class TestMultiRankSystem:
    def test_rejects_zero_ranks(self):
        config = SystemConfig.scaled(total_bytes=4 << 20, rows_per_ar=32)
        with pytest.raises(ValueError):
            MultiRankSystem(config, num_ranks=0)

    def test_total_capacity(self):
        dimm = make_dimm(4)
        assert dimm.total_bytes == 4 * (4 << 20)

    def test_aggregated_refresh_is_sum(self):
        dimm = make_dimm(2, seed=1)
        profile = benchmark_profile("gcc")
        dimm.populate(profile, accesses_per_window=0)
        result = dimm.run_windows(2)
        per_rank_total = dimm.config.geometry.total_rows * 2  # 2 windows
        assert result.refresh.groups_total == 2 * per_rank_total
        assert result.refresh.windows == 2

    def test_normalized_metrics_match_single_rank_scale(self):
        """Aggregated ratios sit between (and near) per-rank ratios."""
        dimm = make_dimm(2, seed=2)
        profile = benchmark_profile("milc")
        dimm.populate(profile, accesses_per_window=0)
        result = dimm.run_windows(2)
        singles = [r.normalized_refresh for r in dimm.last_rank_results]
        assert min(singles) - 1e-9 <= result.normalized_refresh <= max(singles) + 1e-9

    def test_ipc_uses_mean_unavailability(self):
        dimm = make_dimm(2, seed=3)
        dimm.populate(benchmark_profile("lbm"), accesses_per_window=0)
        result = dimm.run_windows(2)
        mean_u = sum(r.engine.stats.normalized_refresh() for r in dimm.ranks)
        assert result.ipc is not None
        assert result.ipc.normalized_ipc >= 1.0

    def test_integrity_across_ranks(self):
        dimm = make_dimm(2, seed=4)
        dimm.populate(benchmark_profile("bzip2"))
        dimm.run_windows(2)
        assert dimm.verify_integrity()

    def test_ranks_are_independent_domains(self):
        """Writing in one rank never dirties another rank's sets."""
        dimm = make_dimm(2, seed=5)
        dimm.populate(benchmark_profile("gcc"), accesses_per_window=0)
        dimm.run_windows(1)
        rank0, rank1 = dimm.ranks
        page = int(rank0.allocator.allocated_pages[0])
        rank0.controller.zero_pages([page], rank0.time_s)
        before = (rank0.engine.stats.dirty_ars, rank1.engine.stats.dirty_ars)
        dimm.run_windows(1, warmup_windows=0)
        assert rank0.engine.stats.dirty_ars > before[0]
        assert rank1.engine.stats.dirty_ars == before[1]
