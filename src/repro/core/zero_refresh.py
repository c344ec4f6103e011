"""The complete ZERO-REFRESH system (paper Fig. 7, both sides).

:class:`ZeroRefreshSystem` wires every substrate together:

* CPU side — cell-type predictor, value-transformation codec, memory
  controller (EBDI op counting);
* DRAM side — device with true/anti cell layout, refresh engine with
  staggered counters, discharged-status and access-bit tables;
* OS — page allocator with the configured cleansing policy;
* instrumentation — energy accountant, bank-availability model,
  analytical core model, retention tracker.

Typical use::

    config = SystemConfig.scaled(total_bytes=32 << 20)
    system = ZeroRefreshSystem(config)
    system.populate(benchmark_profile("mcf"), allocated_fraction=0.70)
    result = system.run_windows(8)
    print(result.normalized_refresh, result.normalized_energy)

``populate`` fills the allocated share of memory with profile content
(the measured-before-start state, so the first window derives the
status tables); ``run_windows`` then simulates retention windows, each
with the profile's write traffic landing between AR commands exactly as
the access-bit protocol sees it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.controller.memctrl import MemoryController
from repro.controller.scheduler import BankAvailabilityModel
from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.cpu.core import AnalyticalCoreModel
from repro.dram.device import DramDevice, discharged_value
from repro.dram.geometry import DramGeometry
from repro.dram.refresh import RefreshEngine
from repro.dram.retention import RetentionTracker
from repro.energy.accounting import EnergyAccountant
from repro.obs import get_probes
from repro.obs.spans import get_tracer
from repro.osmodel.pages import PageAllocator
from repro.sim.kernel import SimKernel
from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import ValueTransformCodec
from repro.workloads.access import WorkingSetTraceGenerator
from repro.workloads.benchmarks import SEGMENT_ALIGN_PAGES, BenchmarkProfile
from repro.workloads.synthetic import (
    BATCHED,
    CLASS_IDS,
    CLASS_NAMES,
    draw_lines_in_order,
    generate_lines,
)


class ZeroRefreshSystem:
    """End-to-end simulated system under one :class:`SystemConfig`.

    ``probes`` (a :class:`~repro.obs.probes.ProbeBus`) defaults to the
    ambient bus installed by :func:`repro.obs.instrument`; it is wired
    through the controller, the refresh engine, the energy accountant
    and the simulation kernel.
    """

    def __init__(self, config: SystemConfig, probes=None):
        self.config = config
        self.probes = probes if probes is not None else get_probes()
        geometry: DramGeometry = config.geometry
        self.rng = np.random.default_rng(config.seed)
        self.layout = CellTypeLayout(interleave=geometry.cell_interleave)
        self.device = DramDevice(geometry, self.layout)
        self.predictor = CellTypePredictor.from_layout(
            self.layout,
            geometry.rows_per_bank,
            error_rate=config.celltype_error_rate,
            rng=self.rng,
        )
        self.codec = ValueTransformCodec(
            self.predictor,
            num_chips=geometry.num_chips,
            word_bytes=geometry.word_bytes,
            line_bytes=geometry.line_bytes,
            stages=config.stages,
        )
        self.controller = MemoryController(self.device, self.codec,
                                           probes=self.probes)
        if config.refresh_mode == "hybrid":
            from repro.baselines.hybrid import HybridRefreshEngine

            self.engine = HybridRefreshEngine(
                self.device,
                timing=config.timing,
                staggered=config.staggered_counters,
                policy=config.refresh_policy,
                probes=self.probes,
            )
        else:
            self.engine = RefreshEngine(
                self.device,
                timing=config.timing,
                mode=config.refresh_mode,
                staggered=config.staggered_counters,
                policy=config.refresh_policy,
                probes=self.probes,
            )
        self.allocator = PageAllocator(
            self.controller, policy=config.cleanse_policy, rng=self.rng
        )
        self.availability = BankAvailabilityModel(
            timing=config.timing, num_banks=geometry.num_banks
        )
        self.accountant = EnergyAccountant(
            geometry,
            config.timing,
            reference_geometry=DramGeometry.paper_config(),
            probes=self.probes,
        )
        self.core_model = AnalyticalCoreModel(self.availability)
        # Hybrid recency skipping is only sound with a retention guard
        # band (schedule twice as fast as the true retention time); the
        # integrity checker uses the matching physical retention.
        physical_tret = config.timing.tret_s * (
            2.0 if config.refresh_mode == "hybrid" else 1.0
        )
        self.retention = RetentionTracker(self.device, physical_tret)
        self.profile: Optional[BenchmarkProfile] = None
        # content class id of every page (CLASS_NAMES order); pages
        # never populated stay zero
        self._page_class = np.full(self.allocator.total_pages,
                                   CLASS_IDS["zero"], dtype=np.int8)
        self._trace_generator: Optional[WorkingSetTraceGenerator] = None
        self.time_s = 0.0

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def populate(
        self,
        profile: BenchmarkProfile,
        allocated_fraction: float = 1.0,
        working_set_fraction: float = 0.05,
        accesses_per_window: Optional[int] = None,
        write_fraction: float = 0.25,
    ) -> None:
        """Allocate memory and fill it with the benchmark's content.

        Allocation is performed in 64-page units (buddy-allocator-like
        physical contiguity) so the content keeps the class homogeneity
        of real segments; the idle remainder stays zero (the
        zero-on-free state).  A working-set trace generator is prepared
        for :meth:`run_windows`; ``accesses_per_window`` defaults to a
        value proportional to the profile's MPKI.
        """
        with get_tracer().span("populate"):
            self._populate(profile, allocated_fraction, working_set_fraction,
                           accesses_per_window, write_fraction)
        self.probes.gauge("sys.allocated_fraction",
                          self.allocator.allocated_fraction)

    def _populate(
        self,
        profile: BenchmarkProfile,
        allocated_fraction: float,
        working_set_fraction: float,
        accesses_per_window: Optional[int],
        write_fraction: float,
    ) -> None:
        self.profile = profile
        pages = self._allocate_units(allocated_fraction)
        pages.sort()
        # Idle pages have been cleansed by the zero-on-free policy since
        # boot; their zero content went through the transformation, so
        # anti-cell rows hold the complemented (all-ones) image.
        self._zero_fill_pages(self.allocator.free_pages)
        if len(pages):
            self.fill_pages(pages, profile, self.rng)
            self._record_classes(pages, profile)
        # A longer retention window sees proportionally more of the
        # program's footprint written between two refreshes of a row —
        # the Fig. 16 effect (64 ms vs 32 ms): both the hot-region reach
        # and the access count scale with the window.
        window_scale = self.config.timing.tret_s / 0.032
        ws_size = (
            max(1, int(len(pages) * working_set_fraction * window_scale))
            if len(pages) else 0
        )
        ws_size = min(ws_size, len(pages))
        if ws_size:
            # The working set is a *contiguous* slice of the allocated
            # pages: within one retention window a program hammers a hot
            # region, not uniformly scattered pages.  This is what keeps
            # the per-window dirty-set fraction bounded (and what makes
            # the access-bit filter effective at the paper's scale).
            # Align the hot region to the AR-set span (rows_per_ar rows
            # in each bank = rows_per_ar * num_banks consecutive pages)
            # so it dirties the minimum number of refresh sets, as a
            # region-local working set does at deployment scale.
            span = self.config.geometry.rows_per_ar * self.config.geometry.num_banks
            limit = max(1, len(pages) - ws_size + 1)
            start = int(self.rng.integers(0, limit))
            start = (start // span) * span
            working_set = pages[start:start + ws_size]
            if accesses_per_window is None:
                # Traffic proportional to memory intensity and to the
                # window length, normalised so the hot region is
                # revisited every window without flooding every AR set
                # of the scaled memory.
                accesses_per_window = max(
                    64, int(profile.mpki * len(pages) / 16 * window_scale)
                )
            self._trace_generator = WorkingSetTraceGenerator(
                working_set_pages=np.sort(working_set),
                lines_per_page=self.config.geometry.lines_per_page,
                accesses_per_window=accesses_per_window,
                write_fraction=write_fraction,
                rng=self.rng,
            )
        else:
            self._trace_generator = None

    def fill_pages(self, pages: np.ndarray, profile: BenchmarkProfile,
                   rng: np.random.Generator, notify: bool = False) -> None:
        """Store ``profile``'s content, drawn from ``rng``, in ``pages``.

        Each segment of :meth:`BenchmarkProfile.segments` is encoded and
        stored before the next is drawn, so population holds one
        segment of content, not a copy of all of it.  Storing draws
        nothing, so the draws and the stored bits are those of drawing
        every page first.
        """
        cursor = 0
        for segment in profile.segments(len(pages), rng,
                                        self.config.geometry.lines_per_page):
            self.controller.populate_pages(pages[cursor:cursor + len(segment)],
                                           self._as_words(segment),
                                           self.time_s, notify=notify)
            cursor += len(segment)

    def _allocate_units(self, fraction: float) -> np.ndarray:
        """Allocate a fraction of memory in contiguous 64-page units."""
        total_pages = self.allocator.total_pages
        unit = min(SEGMENT_ALIGN_PAGES, total_pages)
        n_units = total_pages // unit
        want_units = int(round(fraction * n_units))
        chosen = self.rng.choice(n_units, size=want_units, replace=False)
        pages = (chosen[:, None] * unit + np.arange(unit)).ravel()
        # Mark them allocated through the allocator (bypassing its FIFO
        # order, which models an arbitrary long-running allocation state).
        self.allocator._allocated[pages] = True
        self.allocator._free_list = [
            p for p in self.allocator._free_list if not self.allocator._allocated[p]
        ]
        return pages

    def _zero_fill_pages(self, pages: np.ndarray) -> None:
        """Store transform-encoded zeros into the given pages.

        Fast path equivalent to ``controller.zero_pages``: encoding a
        zero line is exactly all-0 stored bits for true-cell rows and
        all-1 for anti-cell rows (every pipeline stage maps zero to
        zero, then the anti complement flips it) — verified against the
        codec by ``tests/core/test_system.py``.
        """
        if len(pages) == 0:
            return
        banks, rows = self.controller.mapper.page_rows(np.asarray(pages))
        banks = np.ravel(np.atleast_1d(banks))
        rows = np.ravel(np.atleast_1d(rows))
        device = self.device
        device.data[banks, rows] = discharged_value(
            self.predictor.predict_anti(rows), device.data.dtype)[:, None, None, None]
        device.dirty[banks, rows] = True
        device.last_refresh[banks, rows] = self.time_s

    def _record_classes(self, pages: np.ndarray, profile: BenchmarkProfile) -> None:
        """Remember each page's content class so writes stay in-class."""
        cursor = 0
        for name, count in profile.segment_classes(len(pages), self.rng):
            self._page_class[pages[cursor:cursor + count]] = CLASS_IDS[name]
            cursor += count

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run_windows(self, n_windows: int = 8, warmup_windows: int = 1,
                    compute_ipc: bool = True) -> RunResult:
        """Simulate retention windows with interleaved write traffic.

        ``warmup_windows`` are simulated but not measured: the first
        pass over freshly populated memory must refresh everything while
        it derives the discharged-status table, a transient the paper's
        fast-forwarded simulations have already passed.  The result
        aggregates the ``n_windows`` measured windows (the paper uses 8:
        256 ms at the 32 ms extended rate).

        The windows themselves are driven by the unified
        :class:`~repro.sim.kernel.SimKernel`; this method is kernel
        construction plus result finalisation.
        """
        kernel = self.make_kernel()
        kernel.run(n_windows, warmup_windows=warmup_windows)
        return self.finalize_run(kernel, compute_ipc=compute_ipc)

    def make_kernel(self, name: str = "") -> SimKernel:
        """A :class:`~repro.sim.kernel.SimKernel` over this system's engine.

        The kernel starts at the system's current simulated time and
        feeds it this system's window traffic; compositions (multi-rank
        DIMMs) drive several of these in lockstep and call
        :meth:`finalize_run` per member.
        """
        return SimKernel(
            self.engine,
            self.config.timing.tret_s,
            traffic=self._window_traffic,
            on_measure_start=self._begin_measurement,
            probes=self.probes,
            start_time_s=self.time_s,
            name=name or self.config.refresh_mode,
        )

    def finalize_run(self, kernel: SimKernel, compute_ipc: bool = True) -> RunResult:
        """Fold a finished kernel run into this system's :class:`RunResult`.

        Syncs the system clock to the kernel's and derives the energy
        and IPC views from the measured stats.
        """
        self.time_s = kernel.time_s
        total = kernel.stats
        energy = self.accountant.report(total, ebdi_ops=self.controller.ebdi_ops)
        ipc = None
        if compute_ipc and self.profile is not None:
            ipc = self.core_model.evaluate(self.profile, total)
        return RunResult(
            refresh=total,
            energy=energy,
            ipc=ipc,
            allocated_fraction=self.allocator.allocated_fraction,
            benchmark=self.profile.name if self.profile else "",
        )

    def _begin_measurement(self) -> None:
        """Measurement boundary: EBDI ops count only measured windows."""
        self.controller.ebdi_ops = 0

    def _window_traffic(self, window_index: int, t0: float) -> None:
        """Kernel traffic source: post one window's trace to the engine.

        Writes are spread uniformly over the window and carry new
        in-class values; the engine applies each one in its span
        between AR commands.  Reads matter only to access-recency
        mechanisms: when the engine declares ``wants_access_events``
        (hybrid mode) they are posted as row activations that recharge
        the row and feed the recency table.  Draws come in a fixed
        order: the trace, the write times, the read times, then the
        content of every write that lands, in line order
        (:meth:`_draw_lines` rebuilds the per-line draws in one pass).
        """
        if self._trace_generator is None:
            return
        trace = self._trace_generator.window_trace()
        if trace is None:
            return
        engine = self.engine
        reads = (trace.reads if engine.wants_access_events
                 else np.empty(0, dtype=np.int64))
        window = self.config.timing.tret_s
        wtimes = t0 + np.sort(self.rng.random(len(trace.writes))) * window
        rtimes = t0 + np.sort(self.rng.random(len(reads))) * window
        span, stamps = engine.place(t0, wtimes)
        lands = span >= 0
        writes = trace.writes[lands]
        engine.post_writes(
            self.controller.encode_lines(writes, self._draw_lines(writes),
                                         stamps[lands]),
            wtimes[lands])
        if len(reads):
            banks, rows, _ = self.controller.mapper.line_location(reads)
            engine.post_reads(banks, rows, rtimes)

    def _as_words(self, lines: np.ndarray) -> np.ndarray:
        """Re-view 64-bit content in the configured word size.

        Content generators emit 8-byte words; for the 4 B word-size
        ablation the same bytes are re-sliced into twice as many 32-bit
        words (a pure view, values unchanged)."""
        if self.codec.dtype == lines.dtype:
            return lines
        flat = np.ascontiguousarray(lines).view(self.codec.dtype)
        return flat.reshape(
            lines.shape[:-1] + (self.config.geometry.words_per_line,)
        )

    def _apply_writes(self, line_addrs: np.ndarray, time_s: float) -> None:
        """Write new in-class values to the given lines, all at ``time_s``."""
        self.controller.write_lines(line_addrs, self._draw_lines(line_addrs),
                                    time_s)

    def _draw_lines(self, line_addrs: np.ndarray) -> np.ndarray:
        """New in-class content for each line, exactly as one
        ``generate_lines(name, 1, rng)`` call per line in order draws it
        (the RNG stream every figure's numbers rest on).

        Each run of lines whose classes ``draw_lines_in_order`` rebuilds
        comes from one block of raw generator output; a ``text``,
        ``uniform32`` or ``float64`` line, whose draws can reject, is
        still one ``generate_lines`` call.
        """
        ids = self._page_class[line_addrs // self.config.geometry.lines_per_page]
        lines = np.empty((len(ids), 8), dtype=np.uint64)
        start = 0
        for i in np.flatnonzero(~BATCHED[ids]).tolist() + [len(ids)]:
            if start < i:
                lines[start:i] = draw_lines_in_order(ids[start:i], self.rng)
            if i < len(ids):
                lines[i] = generate_lines(CLASS_NAMES[ids[i]], 1, self.rng)[0]
            start = i + 1
        return self._as_words(lines)

    # ------------------------------------------------------------------
    # convenience measurements
    # ------------------------------------------------------------------
    def discharged_fraction(self) -> float:
        """Current fraction of fully-discharged logical rows."""
        return self.device.discharged_row_fraction()

    def verify_integrity(self) -> bool:
        """True when no charged cell has outlived the retention window."""
        return self.retention.verify_no_loss(self.time_s)

    def read_page(self, page: int) -> np.ndarray:
        """Read a page back through the full inverse transformation."""
        return self.controller.read_page(page, self.time_s)
