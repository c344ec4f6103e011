"""The refresh engine and window traffic as they were before the window
pass: the oracle the array pass is tested against.

:class:`ReferenceRefreshEngine` walks a retention window slot by slot.
Before each AR slot it calls the window's write hook with the span since
the previous slot, then handles the (bank, set) command on its own:
test-and-clear the access bit, refresh every group and re-derive the
status of a dirty set, or read the stored vector and skip its groups
for a clean one.  :class:`ReferenceHybridEngine` adds the per-row
recency table and its per-command override; the naive mode re-derives
the tracker vector on every write, through a write observer.

:func:`window_hook` builds the hook the system used to hand the engine:
it draws a window's trace, write times and read times, and applies the
writes that fall before each slot in one controller batch
(:func:`write_lines`, which stores line by line), with content drawn
line by line.  :func:`run_windows` drives a system through the kernel
that way.
"""

import numpy as np

from repro.dram.refresh import RefreshEngine, RefreshStats
from repro.sim.kernel import SimKernel
from repro.workloads.synthetic import generate_lines


class ReferenceRefreshEngine(RefreshEngine):
    """The per-command engine: one :meth:`process_ar` per slot."""

    def _naive_on_write(self, bank: int, row: int) -> None:
        """Naive tracker: re-derive affected status bits on every write."""
        ar_set = row // self.geometry.rows_per_ar
        self.naive_tracker.set_vector(
            bank, ar_set, self.derive_group_status(bank, ar_set)
        )
        self.naive_tracker.updates += 1

    def group_steps(self, ar_set: int) -> np.ndarray:
        """Refresh steps covered by one AR command."""
        start = ar_set * self.geometry.rows_per_ar
        return np.arange(start, start + self.geometry.rows_per_ar)

    def derive_group_status(self, bank: int, ar_set: int) -> np.ndarray:
        steps = self.group_steps(ar_set)
        rows_matrix = self.counters.rows_for_steps(steps)  # (chips, k)
        set_rows = self.geometry.rows_of_ar_set(ar_set)
        per_chip = self.device.banks[bank].detect_discharged_per_chip(set_rows)
        rel = rows_matrix - set_rows[0]
        chips = np.arange(self.geometry.num_chips)[:, None]
        return per_chip[rel, chips].all(axis=0)

    def process_ar(self, bank: int, ar_set: int, time_s: float,
                   track_busy: bool = True) -> int:
        if self.mode == "conventional":
            refreshed = self._refresh_groups(
                bank, ar_set, np.ones(self.geometry.rows_per_ar, dtype=bool), time_s
            )
        elif self.mode == "naive":
            set_rows = self.geometry.rows_of_ar_set(ar_set)
            bank_obj = self.device.banks[bank]
            if bank_obj.dirty[set_rows].any():
                self.naive_tracker.set_vector(
                    bank, ar_set, self.derive_group_status(bank, ar_set)
                )
                bank_obj.dirty[set_rows] = False
            group_status = self.naive_tracker.vector(bank, ar_set)
            refreshed = self._refresh_groups(bank, ar_set, ~group_status, time_s)
            skipped = int(group_status.sum())
            self.stats.groups_skipped += skipped
            self.probes.count("refresh.groups_skipped", skipped)
        else:
            refreshed = self._process_zero_refresh(bank, ar_set, time_s)
        self.stats.ar_commands += 1
        self.probes.count("refresh.ar_commands")
        if self.probes.tracing:
            self.probes.event("refresh.ar", bank=bank, ar_set=ar_set,
                              t=time_s, refreshed=refreshed, mode=self.mode)
        if track_busy:
            self.stats.rank_busy_groups += refreshed
        return refreshed

    def _process_zero_refresh(self, bank: int, ar_set: int, time_s: float) -> int:
        set_rows = self.geometry.rows_of_ar_set(ar_set)
        dirty = self.access_bits.test_and_clear(bank, ar_set)
        dirty = dirty or bool(self.device.banks[bank].dirty[set_rows].any())
        if dirty:
            self.stats.dirty_ars += 1
            self.probes.count("refresh.dirty_ars")
            refreshed = self._refresh_groups(
                bank, ar_set, np.ones(self.geometry.rows_per_ar, dtype=bool), time_s
            )
            status = self.derive_group_status(bank, ar_set)
            self.status_table.write_vector(bank, ar_set, status)
            self.stats.status_writes += 1
            self.probes.count("refresh.status_writes")
            if self.probes.tracing:
                self.probes.event("refresh.status_renewal", bank=bank,
                                  ar_set=ar_set, t=time_s,
                                  discharged=int(status.sum()))
            self.device.banks[bank].dirty[set_rows] = False
        else:
            self.stats.clean_ars += 1
            self.probes.count("refresh.clean_ars")
            status = self.status_table.read_vector(bank, ar_set)
            self.stats.status_reads += 1
            self.probes.count("refresh.status_reads")
            refreshed = self._refresh_groups(bank, ar_set, ~status, time_s)
            skipped = int(status.sum())
            self.stats.groups_skipped += skipped
            self.probes.count("refresh.groups_skipped", skipped)
            if self.watchdog.enabled:
                self._watchdog_clean_skip(bank, ar_set, status, ~status,
                                          time_s)
        return refreshed

    def _watchdog_clean_skip(self, bank: int, ar_set: int,
                             status: np.ndarray, refresh_mask: np.ndarray,
                             time_s: float) -> None:
        truth = self.derive_group_status(bank, ar_set)
        self.watchdog.check(
            "refresh.no_discharged_refresh",
            not bool((refresh_mask & truth).any()),
            bank=bank, ar_set=ar_set, t=round(time_s, 6),
        )
        self.watchdog.check(
            "refresh.skip_safety",
            not bool((status & ~truth).any()),
            bank=bank, ar_set=ar_set, t=round(time_s, 6),
            marked_discharged=int(status.sum()),
            actually_charged=int((status & ~truth).sum()),
        )

    def _refresh_groups(self, bank: int, ar_set: int, refresh_mask: np.ndarray,
                        time_s: float) -> int:
        steps = self.group_steps(ar_set)[refresh_mask]
        if len(steps):
            rows_matrix = self.counters.rows_for_steps(steps)  # (chips, n)
            if self.probes.enabled:
                chip_col = np.arange(self.geometry.num_chips)[:, None]
                last = self.device.banks[bank].last_refresh[
                    rows_matrix, chip_col
                ]
                self.probes.observe_many(
                    "refresh.row_charge_lifetime_s",
                    time_s - last.min(axis=0),
                )
            chips = np.repeat(
                np.arange(self.geometry.num_chips), rows_matrix.shape[1]
            )
            self.device.banks[bank].refresh_slices(
                rows_matrix.ravel(), chips, time_s
            )
        refreshed = int(refresh_mask.sum())
        self.stats.groups_refreshed += refreshed
        self.probes.count("refresh.groups_refreshed", refreshed)
        return refreshed

    def run_window(self, start_time_s: float = 0.0,
                   write_hook=None) -> RefreshStats:
        before = RefreshStats(**vars(self.stats))
        geometry = self.geometry
        cadence = self.timing.tret_s / geometry.ar_sets_per_bank
        offset = cadence / geometry.num_banks
        previous = start_time_s
        for ar_set in range(geometry.ar_sets_per_bank):
            if self.policy == "all-bank":
                t = start_time_s + ar_set * cadence
                if write_hook is not None:
                    write_hook(previous, t)
                worst = 0
                for bank in range(geometry.num_banks):
                    refreshed = self.process_ar(bank, ar_set, t,
                                                track_busy=False)
                    worst = max(worst, refreshed)
                self.stats.rank_busy_groups += worst * geometry.num_banks
                previous = t
                continue
            for bank in range(geometry.num_banks):
                t = start_time_s + ar_set * cadence + bank * offset
                if write_hook is not None:
                    write_hook(previous, t)
                self.process_ar(bank, ar_set, t)
                previous = t
        if write_hook is not None:
            write_hook(previous, start_time_s + self.timing.tret_s)
        self.stats.windows += 1
        after = RefreshStats(**vars(self.stats))
        delta = RefreshStats(**{name: value - getattr(before, name)
                                for name, value in vars(after).items()})
        if self.watchdog.enabled:
            expected = (geometry.num_banks * geometry.ar_sets_per_bank
                        * geometry.rows_per_ar)
            self.watchdog.check(
                "refresh.window_conservation",
                delta.groups_total == expected,
                groups_total=delta.groups_total, expected=expected,
                t=round(start_time_s, 6),
            )
        return delta


class ReferenceHybridEngine(ReferenceRefreshEngine):
    """The hybrid engine's per-command override of the zero-refresh path."""

    wants_access_events = True

    def __init__(self, device, timing=None, staggered=True,
                 policy="per-bank", probes=None):
        super().__init__(device, timing=timing, mode="zero-refresh",
                         staggered=staggered, policy=policy, probes=probes)
        self._recency = np.zeros(
            (self.geometry.num_banks, self.geometry.rows_per_bank),
            dtype=np.int8,
        )
        device.add_access_observer(self.note_access)
        self.recency_skips = 0

    def note_access(self, bank: int, row: int) -> None:
        self._recency[bank, row] = 1

    def _recency_group_status(self, bank: int, ar_set: int) -> np.ndarray:
        steps = self.group_steps(ar_set)
        rows_matrix = self.counters.rows_for_steps(steps)
        return (self._recency[bank][rows_matrix] > 0).all(axis=0)

    def _process_zero_refresh(self, bank: int, ar_set: int,
                              time_s: float) -> int:
        recent = self._recency_group_status(bank, ar_set)
        set_rows = self.geometry.rows_of_ar_set(ar_set)
        dirty = self.access_bits.test_and_clear(bank, ar_set)
        dirty = dirty or bool(self.device.banks[bank].dirty[set_rows].any())
        if dirty:
            self.stats.dirty_ars += 1
            self.probes.count("refresh.dirty_ars")
            refreshed = self._refresh_groups(bank, ar_set, ~recent, time_s)
            derived = self.derive_group_status(bank, ar_set)
            derived[recent] = False
            self.status_table.write_vector(bank, ar_set, derived)
            self.stats.status_writes += 1
            self.probes.count("refresh.status_writes")
            if self.probes.tracing:
                self.probes.event("refresh.status_renewal", bank=bank,
                                  ar_set=ar_set, t=time_s,
                                  discharged=int(derived.sum()))
            self.device.banks[bank].dirty[set_rows] = False
            skipped = int(recent.sum())
            self.stats.groups_skipped += skipped
            self.probes.count("refresh.groups_skipped", skipped)
            self.recency_skips += skipped
            self.probes.count("refresh.recency_skips", skipped)
        else:
            self.stats.clean_ars += 1
            self.probes.count("refresh.clean_ars")
            status = self.status_table.read_vector(bank, ar_set)
            self.stats.status_reads += 1
            self.probes.count("refresh.status_reads")
            skip = status | recent
            refreshed = self._refresh_groups(bank, ar_set, ~skip, time_s)
            skipped = int(skip.sum())
            self.stats.groups_skipped += skipped
            self.probes.count("refresh.groups_skipped", skipped)
            recency_only = int((recent & ~status).sum())
            self.recency_skips += recency_only
            self.probes.count("refresh.recency_skips", recency_only)
            if self.watchdog.enabled:
                self._watchdog_clean_skip(bank, ar_set, status, ~skip,
                                          time_s)
        return refreshed

    def run_window(self, start_time_s: float = 0.0, write_hook=None):
        delta = super().run_window(start_time_s, write_hook)
        np.maximum(self._recency - 1, 0, out=self._recency)
        return delta


# ----------------------------------------------------------------------
# the write hook and the traffic it applied
# ----------------------------------------------------------------------
def make_write_hook(apply_writes, apply_reads, writes, wtimes, reads, rtimes):
    """``hook(span_start, span_end)``: apply the accesses drawn before
    ``span_end`` (times sorted), stamped ``span_start``."""
    state = {"w": 0, "r": 0}

    def hook(span_start: float, span_end: float) -> None:
        w0 = state["w"]
        w1 = w0
        while w1 < len(writes) and wtimes[w1] < span_end:
            w1 += 1
        if w1 > w0:
            apply_writes(writes[w0:w1], span_start)
            state["w"] = w1
        r0 = state["r"]
        r1 = r0
        while r1 < len(reads) and rtimes[r1] < span_end:
            r1 += 1
        if r1 > r0:
            apply_reads(reads[r0:r1], span_start)
            state["r"] = r1

    return hook


def write_lines(ctrl, line_addrs, lines, time_s=0.0) -> None:
    """The controller's batch write: one codec pass, stored line by line."""
    line_addrs = np.asarray(line_addrs)
    lines = np.asarray(lines)
    if len(line_addrs) == 0:
        return
    banks, rows, lines_in_row = ctrl.mapper.line_location(line_addrs)
    banks = np.atleast_1d(banks)
    rows = np.atleast_1d(rows)
    lines_in_row = np.atleast_1d(lines_in_row)
    transformed = ctrl.codec.transform_lines(lines, rows)
    if ctrl.probes.enabled:
        zero = ctrl.codec.stored_zero(rows)[:, None]
        ctrl.probes.observe(
            "codec.encoded_zero_fraction",
            float((transformed == zero).mean()),
        )
    chip_words = ctrl.codec.rotation.scatter(transformed, rows)
    if ctrl.watchdog.enabled:
        row0 = int(rows[0])
        decoded = ctrl.codec.decode_row(chip_words[:, :1], row0)
        ctrl.watchdog.check(
            "codec.round_trip",
            bool(np.array_equal(decoded, lines[:1])),
            row=row0, t=round(time_s, 6),
        )
    for i in range(len(line_addrs)):
        ctrl.device.write_line(int(banks[i]), int(rows[i]),
                               int(lines_in_row[i]), chip_words[:, i], time_s)
    ctrl.ebdi_ops += len(line_addrs)
    ctrl.line_writes += len(line_addrs)
    ctrl.probes.count("ctrl.ebdi_ops", len(line_addrs))
    ctrl.probes.count("ctrl.line_writes", len(line_addrs))
    if ctrl.probes.tracing:
        ctrl.probes.event("ctrl.write_batch", n=len(line_addrs), t=time_s)


def read_line(ctrl, line_addr, time_s=0.0) -> np.ndarray:
    """The controller's one-line read."""
    bank, row, line_in_row = ctrl.mapper.line_location(line_addr)
    chip_words = ctrl.device.read_line(int(bank), int(row), int(line_in_row),
                                       time_s)
    ctrl.ebdi_ops += 1
    ctrl.line_reads += 1
    ctrl.probes.count("ctrl.ebdi_ops")
    ctrl.probes.count("ctrl.line_reads")
    return ctrl.codec.decode_row(chip_words[:, None, :], int(row))[0]


def apply_writes(system, line_addrs, time_s) -> None:
    """New in-class values for the lines, drawn line by line."""
    lines = np.empty((len(line_addrs), 8), dtype=np.uint64)
    pages = line_addrs // system.config.geometry.lines_per_page
    for i, page in enumerate(pages):
        name = system._page_class.get(int(page), "zero")
        lines[i] = generate_lines(name, 1, system.rng)[0]
    write_lines(system.controller, line_addrs, system._as_words(lines), time_s)


def apply_reads(system, line_addrs, time_s) -> None:
    """Row activations from demand reads: recharge + recency note."""
    banks, rows, _ = system.controller.mapper.line_location(line_addrs)
    banks = np.atleast_1d(banks)
    rows = np.atleast_1d(rows)
    for bank_idx in np.unique(banks):
        bank_rows = np.unique(rows[banks == bank_idx])
        bank = system.device.banks[int(bank_idx)]
        bank.last_refresh[bank_rows] = np.maximum(
            bank.last_refresh[bank_rows], time_s
        )
        for row in bank_rows:
            system.engine.note_access(int(bank_idx), int(row))


def window_hook(system, t0: float):
    """One window's trace as a write hook (``None`` for an idle window)."""
    if system._trace_generator is None:
        return None
    trace = system._trace_generator.window_trace()
    if trace is None:
        return None
    writes = trace.writes
    reads = (trace.reads if system.engine.wants_access_events
             else np.empty(0, dtype=np.int64))
    window = system.config.timing.tret_s
    wtimes = t0 + np.sort(system.rng.random(len(writes))) * window
    rtimes = t0 + np.sort(system.rng.random(len(reads))) * window
    return make_write_hook(
        lambda addrs, t: apply_writes(system, addrs, t),
        lambda addrs, t: apply_reads(system, addrs, t),
        writes, wtimes, reads, rtimes)


def reference_engine(device, config, probes):
    """The reference engine for ``config``'s refresh mode."""
    kwargs = dict(timing=config.timing, staggered=config.staggered_counters,
                  policy=config.refresh_policy, probes=probes)
    if config.refresh_mode == "hybrid":
        return ReferenceHybridEngine(device, **kwargs)
    return ReferenceRefreshEngine(device, mode=config.refresh_mode, **kwargs)


def install(system) -> None:
    """Swap ``system``'s engine for the reference engine (before any
    window runs): the device's observers go with the old engine."""
    system.device._write_observers.clear()
    system.device._access_observers.clear()
    system.engine = reference_engine(system.device, system.config,
                                     system.probes)


class _HookedScheme:
    """Runs the engine with the hook the traffic source left for it."""

    def __init__(self, engine):
        self.engine = engine
        self.hook = None

    def run_window(self, start_time_s: float = 0.0):
        hook, self.hook = self.hook, None
        return self.engine.run_window(start_time_s, hook)


def run_windows(system, n_windows: int, warmup_windows: int = 1):
    """``ZeroRefreshSystem.run_windows`` with the write hook."""
    scheme = _HookedScheme(system.engine)

    def traffic(window_index: int, t0: float) -> None:
        scheme.hook = window_hook(system, t0)

    kernel = SimKernel(scheme, system.config.timing.tret_s, traffic=traffic,
                       on_measure_start=system._begin_measurement,
                       probes=system.probes, start_time_s=system.time_s,
                       name=system.config.refresh_mode)
    kernel.run(n_windows, warmup_windows=warmup_windows)
    return system.finalize_run(kernel)
