"""Tests for the RefreshScheme protocol and its adapters."""

import numpy as np

from repro.core.config import SystemConfig
from repro.sim import (
    RaidrScheme,
    RefreshScheme,
    SmartRefreshScheme,
    ZeroIndicatorRefreshScheme,
)


def quick_config(**overrides):
    return SystemConfig.scaled(total_bytes=4 << 20, **overrides)


class TestCapabilities:
    def test_plain_engine_does_not_want_access_events(self):
        from repro.core.zero_refresh import ZeroRefreshSystem

        system = ZeroRefreshSystem(quick_config())
        assert not system.engine.wants_access_events
        assert isinstance(system.engine, RefreshScheme)

    def test_hybrid_engine_wants_access_events(self):
        from repro.core.zero_refresh import ZeroRefreshSystem

        system = ZeroRefreshSystem(quick_config(refresh_mode="hybrid"))
        assert system.engine.wants_access_events
        assert isinstance(system.engine, RefreshScheme)

    def test_engines_have_no_private_probe_attr(self):
        """The capability flag replaced hasattr(_note_access) probing."""
        from repro.core.zero_refresh import ZeroRefreshSystem

        for mode in ("zero-refresh", "hybrid"):
            engine = ZeroRefreshSystem(quick_config(refresh_mode=mode)).engine
            assert not hasattr(engine, "_note_access")

    def test_adapters_satisfy_protocol(self):
        adapters = (
            SmartRefreshScheme(tracker=None),
            RaidrScheme(scheduler=None),
            ZeroIndicatorRefreshScheme(scheme=None, content=lambda: None),
        )
        for adapter in adapters:
            assert isinstance(adapter, RefreshScheme)


class TestSmartRefreshScheme:
    def test_feeds_accesses_then_runs_window(self):
        calls = []

        class FakeTracker:
            def note_accesses(self, banks, rows):
                calls.append(("note", list(banks), list(rows)))

            def run_window(self):
                calls.append(("window",))
                from repro.dram.refresh import RefreshStats

                return RefreshStats(groups_refreshed=1, groups_skipped=3,
                                    windows=1)

        scheme = SmartRefreshScheme(
            FakeTracker(), window_accesses=lambda: ([0, 1], [5, 6])
        )
        delta = scheme.run_window(0.064)
        assert calls == [("note", [0, 1], [5, 6]), ("window",)]
        assert delta.groups_skipped == 3

    def test_matches_direct_tracker_loop(self):
        from repro.baselines.smart_refresh import SmartRefreshTracker
        from repro.sim import SimKernel

        config = quick_config()
        rng = np.random.default_rng(11)
        accesses = [
            (rng.integers(0, config.geometry.num_banks, size=8),
             rng.integers(0, config.geometry.rows_per_bank, size=8))
            for _ in range(4)
        ]

        direct = SmartRefreshTracker(config.geometry)
        for banks, rows in accesses:
            direct.note_accesses(banks, rows)
            direct.run_window()

        kernel_tracker = SmartRefreshTracker(config.geometry)
        feed = iter(accesses)
        kernel = SimKernel(
            SmartRefreshScheme(kernel_tracker, lambda: next(feed)),
            window_s=config.timing.tret_s,
        )
        kernel.run(4)
        assert kernel_tracker.stats == direct.stats


class TestRaidrScheme:
    def test_translates_native_stats(self):
        from repro.dram.variation import RetentionProfile

        rng = np.random.default_rng(3)
        profile = RetentionProfile.sample(512, rng=rng)
        from repro.baselines.raidr import RaidrScheduler

        scheduler = RaidrScheduler(profile)
        delta = RaidrScheme(scheduler).run_window(0.0)
        assert delta.windows == 1
        assert delta.groups_refreshed == scheduler.stats.refreshes_performed
        assert (delta.groups_refreshed + delta.groups_skipped
                == len(scheduler.row_bins))


class TestZeroIndicatorScheme:
    def test_counts_all_zero_rows(self):
        from repro.baselines.zero_indicator import ZeroIndicatorScheme

        pages = np.ones((2, 64, 8), dtype=np.uint64)
        pages[0] = 0
        scheme = ZeroIndicatorRefreshScheme(
            ZeroIndicatorScheme(), content=lambda: pages, lines_per_row=64
        )
        delta = scheme.run_window()
        assert delta.groups_skipped == 1
        assert delta.groups_refreshed == 1
        assert delta.windows == 1
