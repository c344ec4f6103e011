"""The refresh engine, the rank's stores and window traffic as they were
before the batch paths: the oracle the array pass is tested against.

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

The rank's per-line and per-row stores write one row at a time into the
device's arrays in place (:func:`store_lines`, :func:`load_line`,
:func:`activate_row`): a write dirties its row, every activation raises
the row's ``last_refresh`` to its stamp with a maximum, and each call
hands ``(bank, row)`` to the device's observers, write observers first.
:func:`discharged_per_chip` is the wire-OR detector one bank at a time.
The page helpers (:func:`write_page`, :func:`zero_page`,
:func:`read_page`) encode a page row by row and read it line by line
through them.  None of this calls the device's batch paths.
"""

import numpy as np

from repro.dram.refresh import RefreshEngine, RefreshStats
from repro.sim.kernel import SimKernel
from repro.workloads.synthetic import CLASS_NAMES, generate_lines


# ----------------------------------------------------------------------
# the rank's per-line and per-row stores
# ----------------------------------------------------------------------
def activate_row(device, bank: int, row: int, time_s: float = 0.0) -> None:
    """Open one row without a content change: its slices recharge to
    ``time_s`` unless already later, and access observers see it."""
    slices = device.last_refresh[bank, row]
    np.maximum(slices, time_s, out=slices)
    for observer in device._access_observers:
        observer(bank, row)


def store_lines(device, bank: int, row: int, start_line: int,
                chip_data: np.ndarray, time_s: float = 0.0) -> None:
    """Store a run of one row's lines, ``(num_chips, n, words)`` from
    ``start_line`` on: the row turns dirty, recharges like an
    activation, and every write and access observer sees it."""
    n = chip_data.shape[1]
    device.data[bank, row, :, start_line:start_line + n] = chip_data
    device.dirty[bank, row] = True
    slices = device.last_refresh[bank, row]
    np.maximum(slices, time_s, out=slices)
    for observer in device._write_observers + device._access_observers:
        observer(bank, row)


def load_line(device, bank: int, row: int, line_in_row: int,
              time_s: float = 0.0) -> np.ndarray:
    """One line's per-chip words, ``(num_chips, words)``; the read
    activates its row."""
    activate_row(device, bank, row, time_s)
    return device.data[bank, row, :, line_in_row].copy()


def discharged_per_chip(device, bank: int, rows) -> np.ndarray:
    """Per-(row, chip) wire-OR status of ``rows`` of one bank: every
    stored bit reads as its row's discharged value (all 0s on true-cell
    rows, all 1s on anti-cell rows); spared rows report charged."""
    content = device.data[bank, rows]
    zero = content.dtype.type(0)
    target = np.where(device.anti[bank, rows], ~zero, zero)
    out = (content == target[:, None, None, None]).all(axis=(2, 3))
    out[device.spared[bank, rows]] = False
    return out


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
        per_chip = discharged_per_chip(self.device, bank, set_rows)
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
            if self.device.dirty[bank, set_rows].any():
                self.naive_tracker.set_vector(
                    bank, ar_set, self.derive_group_status(bank, ar_set)
                )
                self.device.dirty[bank, set_rows] = False
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
        dirty = dirty or bool(self.device.dirty[bank, set_rows].any())
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
            self.device.dirty[bank, set_rows] = False
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
            if self.probes.checking:
                self._check_clean_skip(bank, ar_set, status, ~status,
                                          time_s)
        return refreshed

    def _check_clean_skip(self, bank: int, ar_set: int,
                             status: np.ndarray, refresh_mask: np.ndarray,
                             time_s: float) -> None:
        truth = self.derive_group_status(bank, ar_set)
        self.probes.check(
            "refresh.no_discharged_refresh",
            not bool((refresh_mask & truth).any()),
            bank=bank, ar_set=ar_set, t=round(time_s, 6),
        )
        self.probes.check(
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
                last = self.device.last_refresh[bank][rows_matrix, chip_col]
                self.probes.observe_many(
                    "refresh.row_charge_lifetime_s",
                    time_s - last.min(axis=0),
                )
            chips = np.arange(self.geometry.num_chips)[:, None]
            self.device.last_refresh[bank, rows_matrix, chips] = time_s
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
        if self.probes.checking:
            expected = (geometry.num_banks * geometry.ar_sets_per_bank
                        * geometry.rows_per_ar)
            self.probes.check(
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
        dirty = dirty or bool(self.device.dirty[bank, set_rows].any())
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
            self.device.dirty[bank, set_rows] = False
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
            if self.probes.checking:
                self._check_clean_skip(bank, ar_set, status, ~skip,
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
    if ctrl.probes.checking:
        row0 = int(rows[0])
        decoded = ctrl.codec.decode_row(chip_words[:, :1], row0)
        ctrl.probes.check(
            "codec.round_trip",
            bool(np.array_equal(decoded, lines[:1])),
            row=row0, t=round(time_s, 6),
        )
    for i in range(len(line_addrs)):
        store_lines(ctrl.device, int(banks[i]), int(rows[i]),
                    int(lines_in_row[i]), chip_words[:, i:i + 1], time_s)
    ctrl.ebdi_ops += len(line_addrs)
    ctrl.line_writes += len(line_addrs)
    ctrl.probes.count("ctrl.ebdi_ops", len(line_addrs))
    ctrl.probes.count("ctrl.line_writes", len(line_addrs))
    if ctrl.probes.tracing:
        ctrl.probes.event("ctrl.write_batch", n=len(line_addrs), t=time_s)


def read_line(ctrl, line_addr, time_s=0.0) -> np.ndarray:
    """The controller's one-line read."""
    bank, row, line_in_row = ctrl.mapper.line_location(line_addr)
    chip_words = load_line(ctrl.device, int(bank), int(row), int(line_in_row),
                           time_s)
    ctrl.ebdi_ops += 1
    ctrl.line_reads += 1
    ctrl.probes.count("ctrl.ebdi_ops")
    ctrl.probes.count("ctrl.line_reads")
    return ctrl.codec.decode_row(chip_words[:, None, :], int(row))[0]


def write_page(ctrl, page, lines, time_s=0.0) -> None:
    """The controller's page write: each backing row gets its slice of
    the page's ``(lines_per_page, words_per_line)`` lines, encoded and
    stored row by row (with 8 KB rows, the page's half of its row)."""
    geometry = ctrl.geometry
    banks, rows = ctrl.mapper.page_rows(page)
    size = min(geometry.lines_per_row, geometry.lines_per_page)
    start = page % ctrl.mapper.pages_per_row * geometry.lines_per_page
    for i, (bank, row) in enumerate(zip(np.atleast_1d(banks).tolist(),
                                        np.atleast_1d(rows).tolist())):
        chip_data = ctrl.codec.encode_row(lines[i * size:(i + 1) * size], row)
        store_lines(ctrl.device, bank, row, start, chip_data, time_s)
    ctrl.ebdi_ops += geometry.lines_per_page
    ctrl.line_writes += geometry.lines_per_page
    ctrl.probes.count("ctrl.ebdi_ops", geometry.lines_per_page)
    ctrl.probes.count("ctrl.line_writes", geometry.lines_per_page)


def zero_page(ctrl, page, time_s=0.0) -> None:
    """OS page cleansing, one page at a time."""
    geometry = ctrl.geometry
    write_page(ctrl, page, np.zeros((geometry.lines_per_page,
                                     geometry.words_per_line),
                                    dtype=ctrl.codec.dtype), time_s)


def read_page(ctrl, page, time_s=0.0) -> np.ndarray:
    """A page's lines, read line by line."""
    return np.stack([read_line(ctrl, addr, time_s)
                     for addr in ctrl.mapper.page_lines(page).tolist()])


def apply_writes(system, line_addrs, time_s) -> None:
    """New in-class values for the lines, drawn line by line."""
    lines = np.empty((len(line_addrs), 8), dtype=np.uint64)
    pages = line_addrs // system.config.geometry.lines_per_page
    for i, page in enumerate(pages):
        name = CLASS_NAMES[system._page_class[page]]
        lines[i] = generate_lines(name, 1, system.rng)[0]
    write_lines(system.controller, line_addrs, system._as_words(lines), time_s)


def apply_reads(system, line_addrs, time_s) -> None:
    """Row activations from demand reads: recharge + recency note."""
    banks, rows, _ = system.controller.mapper.line_location(line_addrs)
    opened = np.unique(np.stack([np.atleast_1d(banks), np.atleast_1d(rows)],
                                axis=1), axis=0)
    for bank, row in opened.tolist():
        slices = system.device.last_refresh[bank, row]
        np.maximum(slices, time_s, out=slices)
        system.engine.note_access(bank, row)


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
