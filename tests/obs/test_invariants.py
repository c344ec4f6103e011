"""Tests for invariant checks on the probe bus (``ProbeBus(checks=True)``)."""

import pytest

from repro.obs import NULL_PROBES, ProbeBus, use_probes
from repro.obs.metrics import MAX_RECORDED_VIOLATIONS


class TestWatchdog:
    def test_check_records_and_returns(self):
        bus = ProbeBus(checks=True)
        assert bus.check("x", True) is True
        assert bus.check("x", False, bank=2) is False
        assert bus.checks_run == 2
        assert bus.violation_count == 1
        assert bus.violations == [{"bank": 2, "check": "x"}]

    def test_violation_recording_is_capped(self):
        bus = ProbeBus(checks=True)
        for i in range(MAX_RECORDED_VIOLATIONS + 1):
            bus.check("x", False, i=i)
        assert bus.violation_count == 101
        assert len(bus.violations) == 100
        assert bus.counters["invariant.violations"] == 101

    def test_violations_count_on_the_checking_bus(self):
        ambient, bus = ProbeBus(), ProbeBus(checks=True)
        with use_probes(ambient):
            bus.check("refresh.skip_safety", False, bank=0)
            bus.check("refresh.skip_safety", True)
        assert bus.counters["invariant.violations"] == 1
        assert bus.counters["invariant.refresh.skip_safety"] == 1
        assert ambient.counters == {}

    def test_never_raises(self):
        # checks observe; a violation must not alter control flow
        bus = ProbeBus(checks=True)
        assert bus.check("anything", False) is False

    def test_snapshot_has_invariants_only_when_checking(self):
        bus = ProbeBus(checks=True)
        bus.check("a", True)
        bus.check("b", False, bank=1, t=0.032)
        assert bus.snapshot()["invariants"] == {
            "checks": 2, "violation_count": 1,
            "violations": [{"bank": 1, "t": 0.032, "check": "b"}]}
        assert "invariants" not in ProbeBus().snapshot()
        # a fork checks only when asked to, and reports on its own
        parent = ProbeBus()
        assert "invariants" in parent.fork(checks=True).snapshot()
        assert "invariants" not in parent.fork().snapshot()


class TestNullWatchdog:
    def test_disabled_and_inert(self):
        assert NULL_PROBES.checking is False
        assert NULL_PROBES.check("x", False) is True
        assert "invariants" not in NULL_PROBES.snapshot()
        assert NULL_PROBES.counters == {}


class TestComponentsPickUpWatchdog:
    def test_refresh_engine_binds_ambient_watchdog(self):
        """Components check on the bus they are given: a system built
        under an ambient checking bus gets it, one built without does
        not."""
        from repro.core.config import SystemConfig
        from repro.core.zero_refresh import ZeroRefreshSystem

        config = SystemConfig.scaled(total_bytes=4 << 20)
        with use_probes(ProbeBus(checks=True)) as bus:
            system = ZeroRefreshSystem(config)
        assert system.engine.probes is bus and bus.checking
        assert system.controller.probes is bus
        # outside the block, new systems get the non-checking default
        bare = ZeroRefreshSystem(config)
        assert not bare.engine.probes.checking
        assert not bare.controller.probes.checking

    def test_watched_run_checks_and_passes(self):
        from repro.core.config import SystemConfig
        from repro.core.zero_refresh import ZeroRefreshSystem
        from repro.workloads.benchmarks import benchmark_profile

        config = SystemConfig.scaled(total_bytes=4 << 20)
        bus = ProbeBus(checks=True)
        system = ZeroRefreshSystem(config, probes=bus)
        system.populate(benchmark_profile("mcf"), allocated_fraction=0.5)
        system.run_windows(2)
        assert bus.checks_run > 0
        assert bus.violation_count == 0, bus.violations

    def test_watchdog_detects_a_planted_skip_violation(self):
        # corrupt the status table behind the engine's back: mark a
        # charged group discharged; the clean path must flag it
        from repro.core.config import SystemConfig
        from repro.core.zero_refresh import ZeroRefreshSystem
        from repro.workloads.benchmarks import benchmark_profile

        config = SystemConfig.scaled(total_bytes=4 << 20)
        bus = ProbeBus(checks=True)
        system = ZeroRefreshSystem(config, probes=bus)
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
        engine.device.dirty[0, set_rows] = False
        engine.process_ar(0, 0, time_s=1.0)
        assert bus.violation_count > 0
        # the planted vector both refreshes groups the detector says
        # are discharged and skips groups it says are charged
        fired = {v["check"] for v in bus.violations}
        assert {"refresh.no_discharged_refresh",
                "refresh.skip_safety"} <= fired
        assert bus.counters["invariant.violations"] == bus.violation_count

    def test_watchdog_detects_a_dropped_refresh_command(self):
        """Plant a fault for ``refresh.window_conservation``: one window's
        pass loses its last (bank, set) command, so that set's groups
        are neither refreshed nor skipped."""
        from repro.core.config import SystemConfig
        from repro.core.zero_refresh import ZeroRefreshSystem
        from repro.workloads.benchmarks import benchmark_profile

        config = SystemConfig.scaled(total_bytes=4 << 20)
        bus = ProbeBus(checks=True)
        system = ZeroRefreshSystem(config, probes=bus)
        system.populate(benchmark_profile("mcf"), allocated_fraction=1.0)
        engine = system.engine
        run_ars = engine._run_ars
        engine._run_ars = lambda banks, sets, times: run_ars(
            banks[:-1], sets[:-1], times[:-1])
        stats = engine.run_window(0.0)
        geometry = engine.geometry
        expected = (geometry.num_banks * geometry.ar_sets_per_bank
                    * geometry.rows_per_ar)
        assert stats.groups_total == expected - geometry.rows_per_ar
        assert [v["check"] for v in bus.violations] == [
            "refresh.window_conservation"]
        assert bus.violations[0]["groups_total"] == stats.groups_total
        # the next, whole window conserves again
        del engine._run_ars
        engine.run_window(config.timing.tret_s)
        assert bus.violation_count == 1
