"""Tests for the unified simulation kernel."""

import pytest

from repro.dram.refresh import RefreshStats
from repro.obs import ProbeBus, SpanTracer, use_tracer
from repro.sim import SimKernel, run_concurrent


class RecordingScheme:
    """Scheme double: records every run_window call it receives, with
    the traffic posted to it since the previous one."""

    def __init__(self):
        self.calls = []
        self.posted = []

    def run_window(self, start_time_s=0.0):
        self.calls.append((start_time_s, self.posted))
        self.posted = []
        return RefreshStats(groups_refreshed=2, groups_skipped=1, windows=1)


class TestSimKernel:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            SimKernel(RecordingScheme(), window_s=0.0)

    def test_warmup_windows_are_not_measured(self):
        scheme = RecordingScheme()
        kernel = SimKernel(scheme, window_s=0.064)
        stats = kernel.run(3, warmup_windows=2)
        assert len(scheme.calls) == 5
        assert stats.windows == 3
        assert stats.groups_refreshed == 6

    def test_time_advances_one_window_per_call(self):
        scheme = RecordingScheme()
        kernel = SimKernel(scheme, window_s=0.064, start_time_s=1.0)
        kernel.run(2, warmup_windows=1)
        times = [t for t, _ in scheme.calls]
        assert times == pytest.approx([1.0, 1.064, 1.128])
        assert kernel.time_s == pytest.approx(1.192)

    def test_traffic_called_per_measured_window_with_index_and_t0(self):
        scheme = RecordingScheme()
        seen = []

        def traffic(window_index, t0):
            seen.append((window_index, t0))
            scheme.posted.append(window_index)

        kernel = SimKernel(scheme, window_s=0.5, traffic=traffic)
        kernel.run(2, warmup_windows=1)
        # warmup carries no traffic; each measured window runs after its
        # traffic was posted
        assert seen == [(0, 0.5), (1, 1.0)]
        assert scheme.calls == [(0.0, []), (0.5, [0]), (1.0, [1])]

    def test_begin_measurement_fires_callback_and_resets_stats(self):
        fired = []
        scheme = RecordingScheme()
        kernel = SimKernel(scheme, window_s=0.064,
                           on_measure_start=lambda: fired.append(True))
        kernel.run_warmup(1)
        kernel.begin_measurement()
        assert fired == [True]
        assert kernel.stats == RefreshStats()
        kernel.step()
        assert kernel.stats.windows == 1

    def test_probes_count_measured_windows_only(self):
        bus = ProbeBus()
        kernel = SimKernel(RecordingScheme(), window_s=0.064, probes=bus)
        tracer = SpanTracer("t")
        with use_tracer(tracer):
            kernel.run(3, warmup_windows=2)
        assert bus.counters["sim.windows"] == 3
        assert [(r["name"], r["windows"]) for r in tracer.records] == [
            ("warmup", 2), ("measure", 3)]


class TestRunConcurrent:
    def test_lockstep_interleaving(self):
        order = []

        class Tagged(RecordingScheme):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

            def run_window(self, start_time_s=0.0):
                order.append((self.tag, start_time_s))
                return super().run_window(start_time_s)

        kernels = [SimKernel(Tagged(tag), window_s=1.0) for tag in "ab"]
        stats = run_concurrent(kernels, 2)
        # window w of every kernel runs before window w+1 of any
        assert order == [("a", 0.0), ("b", 0.0), ("a", 1.0), ("b", 1.0)]
        assert [s.windows for s in stats] == [2, 2]

    def test_one_measure_span_around_the_lockstep_loop(self):
        kernels = [SimKernel(RecordingScheme(), window_s=1.0)
                   for _ in range(2)]
        tracer = SpanTracer("t")
        with use_tracer(tracer):
            run_concurrent(kernels, 3, warmup_windows=1)
        assert [r["name"] for r in tracer.records] == [
            "warmup", "warmup", "measure"]
        assert tracer.records[-1]["kernels"] == 2

    def test_matches_sequential_execution(self):
        seq = SimKernel(RecordingScheme(), window_s=1.0).run(3, warmup_windows=1)
        (conc,) = run_concurrent(
            [SimKernel(RecordingScheme(), window_s=1.0)], 3, warmup_windows=1
        )
        assert conc == seq


class TestAggregateConcurrent:
    def test_counters_add_windows_overlap(self):
        parts = [
            RefreshStats(groups_refreshed=4, groups_skipped=2, windows=2),
            RefreshStats(groups_refreshed=6, groups_skipped=0, windows=2),
        ]
        merged = RefreshStats.aggregate_concurrent(parts, windows=2)
        assert merged.groups_refreshed == 10
        assert merged.groups_skipped == 2
        assert merged.windows == 2

    def test_inputs_not_mutated(self):
        part = RefreshStats(groups_refreshed=4, windows=2)
        RefreshStats.aggregate_concurrent([part, part], windows=2)
        assert part == RefreshStats(groups_refreshed=4, windows=2)
