"""The unified retention-window simulation kernel.

Every refresh mechanism in this reproduction used to carry its own
window loop (``ZeroRefreshSystem.run_windows``, the Fig. 19 Smart
Refresh loop, ``RaidrScheduler.run``, rank aggregation in
``MultiRankSystem``).  :class:`SimKernel` is the one loop they all run
through now: warmup windows (simulated, unmeasured), a measurement
boundary, then measured windows whose stats deltas accumulate into a
single total via non-mutating merges.

The kernel is deliberately thin — *when* windows happen and what gets
counted, nothing about *how* a scheme decides to refresh.  Traffic is a
callback (``traffic(window_index, t0)``) that posts the window's
accesses to the scheme before the kernel runs the window, so the caller
keeps full control of its RNG stream: the kernel never draws
randomness, which is what makes kernel-driven runs bit-identical to the
loops it replaced (asserted by ``tests/sim/test_parity.py``).

:func:`run_concurrent` composes kernels over the same timeline in
lockstep — the multi-rank DIMM model is exactly this composition plus
stats aggregation (see :mod:`repro.core.multirank`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.dram.refresh import RefreshStats
from repro.obs import get_probes
from repro.obs.spans import get_tracer
from repro.sim.scheme import RefreshScheme

TrafficSource = Callable[[int, float], None]
"""``traffic(window_index, window_start_s)`` posts one measured window's
memory traffic to the scheme (an idle window posts nothing).  Called
once per measured window, in order, just before the window runs — RNG
draws inside it happen exactly as often as in the pre-kernel loops."""


class SimKernel:
    """Drives warmup + measured retention windows of one scheme.

    Parameters
    ----------
    scheme:
        The :class:`~repro.sim.scheme.RefreshScheme` to drive.
    window_s:
        Simulated length of one retention window (``tRET``).
    traffic:
        Optional per-window :data:`TrafficSource`; only measured
        windows carry traffic (warmup models the quiet fast-forward the
        paper's simulations start from).  The scheme then runs the
        window with ``run_window(t0)``.
    on_measure_start:
        Callback fired once, after warmup and before the first measured
        window — the place to reset externally-owned measurement
        counters (e.g. the controller's EBDI op count).
    probes:
        A :class:`~repro.obs.probes.ProbeBus` (default: the ambient bus,
        :func:`repro.obs.get_probes`); each window emits a
        ``sim.window`` trace event.  The ``warmup`` and ``measure``
        phases are timed as spans on the ambient tracer.
    name:
        Label carried on this kernel's probe events (e.g. ``"rank0"``).
    """

    def __init__(
        self,
        scheme: RefreshScheme,
        window_s: float,
        *,
        traffic: Optional[TrafficSource] = None,
        on_measure_start: Optional[Callable[[], None]] = None,
        probes=None,
        start_time_s: float = 0.0,
        name: str = "",
    ):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.scheme = scheme
        self.window_s = window_s
        self.traffic = traffic
        self.on_measure_start = on_measure_start
        self.probes = probes if probes is not None else get_probes()
        self.time_s = start_time_s
        self.name = name
        self.stats = RefreshStats()
        self._window_index = 0

    # ------------------------------------------------------------------
    def run_warmup(self, n_windows: int) -> None:
        """Simulate ``n_windows`` quiet windows without measuring them.

        The first pass over freshly populated memory must refresh
        everything while the scheme derives its tracking state — a
        transient the measured windows should not include.
        """
        if n_windows <= 0:
            return
        with get_tracer().span("warmup", kernel=self.name,
                               windows=n_windows):
            for _ in range(n_windows):
                self.scheme.run_window(self.time_s)
                self.probes.event("sim.window", kernel=self.name,
                                  phase="warmup", t=self.time_s)
                self.time_s += self.window_s

    def begin_measurement(self) -> None:
        """Reset the measured-stats accumulator; fire ``on_measure_start``."""
        if self.on_measure_start is not None:
            self.on_measure_start()
        self.stats = RefreshStats()
        self._window_index = 0

    def step(self) -> RefreshStats:
        """Run one measured window; returns its stats delta."""
        t0 = self.time_s
        if self.traffic is not None:
            self.traffic(self._window_index, t0)
        delta = self.scheme.run_window(t0)
        self.stats = self.stats.merged_with(delta)
        self.probes.count("sim.windows")
        if self.probes.enabled and delta.groups_total:
            self.probes.observe(
                "sim.window_skip_rate",
                delta.groups_skipped / delta.groups_total,
            )
        if self.probes.tracing:
            self.probes.event(
                "sim.window", kernel=self.name, phase="measure",
                index=self._window_index, t=t0,
                refreshed=delta.groups_refreshed,
                skipped=delta.groups_skipped,
            )
        self.time_s += self.window_s
        self._window_index += 1
        return delta

    def run(self, n_windows: int, warmup_windows: int = 0) -> RefreshStats:
        """Warmup, measurement boundary, ``n_windows`` measured windows.

        Returns the accumulated measured stats (also on ``self.stats``).
        """
        self.run_warmup(warmup_windows)
        self.begin_measurement()
        with get_tracer().span("measure", kernel=self.name,
                               windows=n_windows):
            for _ in range(n_windows):
                self.step()
        self.probes.gauge("sim.time_s", self.time_s)
        return self.stats


def run_concurrent(
    kernels: Sequence[SimKernel], n_windows: int, warmup_windows: int = 0
) -> List[RefreshStats]:
    """Drive several kernels over the *same* timeline, in lockstep.

    Window ``w`` of every kernel runs before window ``w + 1`` of any —
    the concurrency structure of independent refresh domains (DIMM
    ranks, channels).  Domains share no state, so lockstep and
    sequential execution produce identical per-kernel results; what the
    composition changes is the *meaning* of the aggregate: windows are
    simultaneous, which is why cross-kernel stats aggregation uses
    :meth:`RefreshStats.aggregate_concurrent` rather than a plain merge.
    """
    for kernel in kernels:
        kernel.run_warmup(warmup_windows)
        kernel.begin_measurement()
    with get_tracer().span("measure", kernels=len(kernels),
                           windows=n_windows):
        for _ in range(n_windows):
            for kernel in kernels:
                kernel.step()
    return [kernel.stats for kernel in kernels]
