"""Tests for the invariant watchdog layer."""

import pytest

from repro.obs import ProbeBus, use_probes
from repro.obs.invariants import (
    NULL_WATCHDOG,
    InvariantWatchdog,
    get_watchdog,
    use_watchdog,
    watch,
)


class TestWatchdog:
    def test_check_records_and_returns(self):
        wd = InvariantWatchdog()
        assert wd.check("x", True) is True
        assert wd.check("x", False, bank=2) is False
        assert wd.checks_run == 2
        assert wd.violation_count == 1
        assert wd.violations == [{"bank": 2, "check": "x"}]

    def test_violation_recording_is_capped(self):
        wd = InvariantWatchdog(max_recorded=3)
        for i in range(10):
            wd.check("x", False, i=i)
        assert wd.violation_count == 10
        assert len(wd.violations) == 3

    def test_violations_count_on_ambient_bus(self):
        bus = ProbeBus()
        wd = InvariantWatchdog()
        with use_probes(bus):
            wd.check("refresh.skip_safety", False, bank=0)
            wd.check("refresh.skip_safety", True)
        assert bus.counters["invariant.violations"] == 1
        assert bus.counters["invariant.refresh.skip_safety"] == 1

    def test_never_raises(self):
        # watchdogs observe; a violation must not alter control flow
        wd = InvariantWatchdog()
        assert wd.check("anything", False) is False

    def test_snapshot_and_report(self):
        wd = InvariantWatchdog()
        wd.check("a", True)
        wd.check("b", False, bank=1, t=0.032)
        snap = wd.snapshot()
        assert snap == {"checks": 2, "violation_count": 1,
                        "violations": [{"bank": 1, "t": 0.032, "check": "b"}]}
        report = wd.report()
        assert "2 checks" in report and "1 violations" in report
        assert "b: bank=1" in report


class TestNullWatchdog:
    def test_disabled_and_inert(self):
        assert NULL_WATCHDOG.enabled is False
        assert NULL_WATCHDOG.check("x", False) is True
        assert NULL_WATCHDOG.snapshot() == {"checks": 0,
                                            "violation_count": 0,
                                            "violations": []}
        assert NULL_WATCHDOG.report() == "invariants: disabled"


class TestAmbientWatchdog:
    def test_default_is_null(self):
        assert get_watchdog() is NULL_WATCHDOG

    def test_use_watchdog_installs_and_restores(self):
        wd = InvariantWatchdog()
        with use_watchdog(wd):
            assert get_watchdog() is wd
        assert get_watchdog() is NULL_WATCHDOG

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_watchdog(InvariantWatchdog()):
                raise RuntimeError
        assert get_watchdog() is NULL_WATCHDOG

    def test_watch_builds_and_installs(self):
        with watch(max_recorded=5) as wd:
            assert get_watchdog() is wd
            assert wd.max_recorded == 5
            assert wd.enabled
        assert get_watchdog() is NULL_WATCHDOG


class TestComponentsPickUpWatchdog:
    def test_refresh_engine_binds_ambient_watchdog(self):
        from repro.core.config import SystemConfig
        from repro.core.zero_refresh import ZeroRefreshSystem

        config = SystemConfig.scaled(total_bytes=4 << 20)
        with watch() as wd:
            system = ZeroRefreshSystem(config)
        assert system.engine.watchdog is wd
        assert system.controller.watchdog is wd
        # outside the block, new systems get the disabled default
        assert ZeroRefreshSystem(config).engine.watchdog is NULL_WATCHDOG

    def test_watched_run_checks_and_passes(self):
        from repro.core.config import SystemConfig
        from repro.core.zero_refresh import ZeroRefreshSystem
        from repro.workloads.benchmarks import benchmark_profile

        config = SystemConfig.scaled(total_bytes=4 << 20)
        with watch() as wd:
            system = ZeroRefreshSystem(config)
            system.populate(benchmark_profile("mcf"), allocated_fraction=0.5)
            system.run_windows(2)
        assert wd.checks_run > 0
        assert wd.violation_count == 0, wd.report()

    def test_watchdog_detects_a_planted_skip_violation(self):
        # corrupt the status table behind the engine's back: mark a
        # charged group discharged; the clean path must flag it
        from repro.core.config import SystemConfig
        from repro.core.zero_refresh import ZeroRefreshSystem
        from repro.workloads.benchmarks import benchmark_profile

        config = SystemConfig.scaled(total_bytes=4 << 20)
        with watch() as wd:
            system = ZeroRefreshSystem(config)
            system.populate(benchmark_profile("mcf"), allocated_fraction=1.0)
            system.run_windows(1)  # derive tables
            engine = system.engine
            truth = engine.derive_group_status(0, 0)
            if truth.all():
                pytest.skip("bank 0 set 0 fully discharged; nothing to plant")
            engine.status_table.write_vector(0, 0, ~truth)
            # force the clean path: traffic may have raised the access
            # bit, and a dirty set would re-derive (and so repair) the
            # planted vector before anyone trusts it
            engine.access_bits.test_and_clear(0, 0)
            set_rows = engine.geometry.rows_of_ar_set(0)
            engine.device.banks[0].dirty[set_rows] = False
            engine.process_ar(0, 0, time_s=1.0)
        assert wd.violation_count > 0
        # the planted vector both refreshes groups the detector says
        # are discharged and skips groups it says are charged
        fired = {v["check"] for v in wd.violations}
        assert {"refresh.no_discharged_refresh",
                "refresh.skip_safety"} <= fired
