"""The window pass against the per-slot engine it replaced.

``tests/dram/reference.py`` keeps the old engine: a write hook called
before every AR slot and one ``process_ar`` per (bank, set).  These
tests drive it and the array pass from identical seeds and require the
same state after every window: the stats delta, the bank arrays, the
tracking tables, the controller counts, the probe snapshot (histogram
sums included), the trace events and the watchdog's checks.

* ``TestSystemRuns``: whole ``ZeroRefreshSystem`` runs in four modes,
  both AR policies, staggered counters on and off and 2/4/8 KB rows,
  with busy and idle windows.
* ``TestPostedTraffic``: Hypothesis draws a window's traffic straight
  into the engine, with the edge cases placed on purpose: accesses
  exactly at a slot time, repeated writes to one line on both sides of
  its set's slot, writes in the last span and at the window's end, and
  empty windows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hybrid import HybridRefreshEngine
from repro.core.config import SystemConfig
from repro.core.zero_refresh import ZeroRefreshSystem
from repro.dram.device import DramDevice, LineWrites
from repro.dram.geometry import DramGeometry
from repro.dram.refresh import RefreshEngine
from repro.obs import ListTraceSink, ProbeBus
from repro.obs.invariants import InvariantWatchdog, use_watchdog
from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import ValueTransformCodec
from repro.workloads.benchmarks import benchmark_profile
from tests.dram import reference

MODES = ("zero-refresh", "conventional", "naive", "hybrid")


def device_state(device):
    return [(bank.data.copy(), bank.last_refresh.copy(), bank.dirty.copy(),
             bank.write_count, bank.read_count) for bank in device.banks]


def engine_state(engine):
    """Everything an engine keeps between windows.

    The naive tracker is compared on sets without dirty rows only: a
    dirty set's vector is re-derived by its next AR before anything
    reads it, and the old engine re-derived it on every write as well.
    """
    state = {"stats": vars(engine.stats).copy()}
    if engine.status_table is not None:
        state["status"] = (engine.status_table._status.copy(),
                           engine.status_table.reads,
                           engine.status_table.writes)
        state["bits"] = (engine.access_bits._bits.copy(),
                         engine.access_bits.sets_observed)
    if engine.naive_tracker is not None:
        geometry = engine.geometry
        shape = (geometry.num_banks, geometry.ar_sets_per_bank,
                 geometry.rows_per_ar)
        settled = ~np.stack([bank.dirty for bank in engine.device.banks]
                            ).reshape(shape).any(axis=2)
        vectors = engine.naive_tracker._status.reshape(shape)
        state["naive"] = (vectors[settled], engine.naive_tracker.updates)
    if hasattr(engine, "_recency"):
        state["recency"] = (engine._recency.copy(), engine.recency_skips)
    return state


def assert_same(a, b, path="state"):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_same(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=path)
        assert a.dtype == b.dtype, path
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def split_events(records):
    """Controller write batches may come in posting order; every other
    event keeps its place."""
    strip = [{k: v for k, v in r.items() if k != "seq"} for r in records]
    return ([r for r in strip if r["event"] != "ctrl.write_batch"],
            [r for r in strip if r["event"] == "ctrl.write_batch"])


# ----------------------------------------------------------------------
# whole systems
# ----------------------------------------------------------------------
def system_run(old: bool, mode, policy, staggered, row_bytes, busy):
    config = SystemConfig.scaled(
        total_bytes=2 << 20, row_bytes=row_bytes, rows_per_ar=16, seed=11,
        refresh_mode=mode, refresh_policy=policy,
        staggered_counters=staggered)
    sink = ListTraceSink()
    bus = ProbeBus(trace=sink)
    wd = InvariantWatchdog()
    with use_watchdog(wd):
        system = ZeroRefreshSystem(config, probes=bus)
        if old:
            reference.install(system)
        system.populate(benchmark_profile("gcc"),
                        allocated_fraction=0.7 if busy else 0.0,
                        working_set_fraction=0.3)
        run = reference.run_windows if old else ZeroRefreshSystem.run_windows
        result = run(system, 2)
    return {
        "result": (vars(result.refresh), repr(result.energy), repr(result.ipc)),
        "device": device_state(system.device),
        "engine": engine_state(system.engine),
        "ctrl": (system.controller.ebdi_ops, system.controller.line_writes,
                 system.controller.line_reads),
        "probes": bus.snapshot(),
        "events": split_events(sink.records),
        "watchdog": wd.snapshot(),
        "rng": system.rng.integers(0, 2**32, size=4),
    }


class TestSystemRuns:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("policy", ["per-bank", "all-bank"])
    @pytest.mark.parametrize("staggered", [True, False])
    @pytest.mark.parametrize("row_bytes", [2048, 4096, 8192])
    def test_busy_windows_match(self, mode, policy, staggered, row_bytes):
        old = system_run(True, mode, policy, staggered, row_bytes, busy=True)
        new = system_run(False, mode, policy, staggered, row_bytes, busy=True)
        assert old["ctrl"][1] > 0  # traffic reached DRAM
        assert_same(old, new)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("policy", ["per-bank", "all-bank"])
    def test_idle_windows_match(self, mode, policy):
        old = system_run(True, mode, policy, True, 4096, busy=False)
        new = system_run(False, mode, policy, True, 4096, busy=False)
        assert old["ctrl"][1] == 0
        assert_same(old, new)

    def test_watched_runs_exercise_the_clean_skip_checks(self):
        new = system_run(False, "zero-refresh", "per-bank", True, 4096,
                         busy=True)
        assert new["watchdog"]["checks"] > 0
        assert new["watchdog"]["violation_count"] == 0


# ----------------------------------------------------------------------
# posted traffic straight into the engine
# ----------------------------------------------------------------------
GEOMETRY = DramGeometry(rows_per_bank=64, rows_per_ar=16, cell_interleave=16,
                        num_banks=4)


def build(old: bool, mode: str, policy: str, staggered: bool):
    """Device, engine, codec, bus and watchdog over mixed content, one
    kind per block of ``num_chips`` rows (a group's diagonal): zero
    blocks, random blocks, and zero blocks with a few random lines in
    one row."""
    layout = CellTypeLayout(interleave=16)
    device = DramDevice(GEOMETRY, layout)
    codec = ValueTransformCodec(
        CellTypePredictor.from_layout(layout, GEOMETRY.rows_per_bank))
    rng = np.random.default_rng(5)
    for bank in range(GEOMETRY.num_banks):
        for row in range(GEOMETRY.rows_per_bank):
            if row % GEOMETRY.num_chips == 0:
                kind = rng.integers(0, 3)
            lines = np.zeros((GEOMETRY.lines_per_row, 8), dtype=np.uint64)
            if kind == 1:
                lines = rng.integers(0, 2**64, size=lines.shape, dtype=np.uint64)
            elif kind == 2 and row % GEOMETRY.num_chips == 3:
                lines[:3] = rng.integers(0, 2**64, size=(3, 8), dtype=np.uint64)
            device.write_row(bank, row, codec.encode_row(lines, row))
    sink = ListTraceSink()
    bus = ProbeBus(trace=sink)
    wd = InvariantWatchdog()
    kwargs = dict(staggered=staggered, policy=policy, probes=bus)
    with use_watchdog(wd):
        if old:
            engine = (reference.ReferenceHybridEngine(device, **kwargs)
                      if mode == "hybrid" else
                      reference.ReferenceRefreshEngine(device, mode=mode,
                                                       **kwargs))
        else:
            engine = (HybridRefreshEngine(device, **kwargs) if mode == "hybrid"
                      else RefreshEngine(device, mode=mode, **kwargs))
    return device, engine, codec, bus, sink, wd


def slot_relative(engine, t0, picks):
    """Access times from (kind, index, fraction) picks: exactly at a
    slot, just before one, anywhere, in the last span, at the end."""
    slots = engine.slot_times(t0).ravel()
    tret = engine.timing.tret_s
    times = []
    for kind, index, fraction in picks:
        slot = slots[index % len(slots)]
        times.append({"at": slot,
                      "before": np.nextafter(slot, -np.inf),
                      "any": t0 + fraction * tret,
                      "last": slots[-1] + fraction * (t0 + tret - slots[-1]),
                      "end": t0 + tret}[kind])
    return np.sort(np.array(times, dtype=float))


def run_posted(old, mode, policy, staggered, windows):
    device, engine, codec, bus, sink, wd = build(old, mode, policy, staggered)
    tret = engine.timing.tret_s
    states = []
    with use_watchdog(wd):
        engine.run_window(0.0)
        states.append(bus.snapshot())
        for w, (writes, reads) in enumerate(windows, start=1):
            t0 = w * tret
            wtimes = slot_relative(engine, t0, [p for _, _, p in writes])
            rtimes = slot_relative(engine, t0, [p for _, p in reads])
            banks = np.array([b for (b, _), _, _ in writes], dtype=np.int64)
            rows = np.array([r for (_, r), _, _ in writes], dtype=np.int64)
            lines_in_row = np.array([line for _, line, _ in writes],
                                    dtype=np.int64)
            content = np.random.default_rng(w).integers(
                0, 2**64, size=(len(writes), 8), dtype=np.uint64)
            content[::2] = 0
            chip_words = (codec.encode_row(content, rows) if len(writes) else
                          np.empty((GEOMETRY.num_chips, 0, 1), np.uint64))
            # a read opens every row of a chip block: recency skips need
            # the whole diagonal of a group activated
            rbanks = np.repeat([b for (b, _), _ in reads],
                               GEOMETRY.num_chips).astype(np.int64)
            rrows = (np.array([r for (_, r), _ in reads], dtype=np.int64)
                     // GEOMETRY.num_chips * GEOMETRY.num_chips)
            rrows = (rrows[:, None] + np.arange(GEOMETRY.num_chips)).ravel()
            rtimes = np.repeat(rtimes, GEOMETRY.num_chips)
            if old:
                def apply_writes(index, stamp):
                    for i in index:
                        device.write_line(int(banks[i]), int(rows[i]),
                                          int(lines_in_row[i]),
                                          chip_words[:, i], stamp)

                def apply_reads(index, stamp):
                    for i in index:
                        bank = device.banks[int(rbanks[i])]
                        bank.last_refresh[rrows[i]] = np.maximum(
                            bank.last_refresh[rrows[i]], stamp)
                        engine.note_access(int(rbanks[i]), int(rrows[i]))

                hook = reference.make_write_hook(
                    apply_writes, apply_reads, np.arange(len(writes)), wtimes,
                    np.arange(len(rrows)), rtimes)
                delta = engine.run_window(t0, hook)
            else:
                engine.post_writes(
                    LineWrites(banks, rows, lines_in_row, chip_words), wtimes)
                if len(rrows):
                    engine.post_reads(rbanks, rrows, rtimes)
                delta = engine.run_window(t0)
            states.append({"delta": vars(delta), "device": device_state(device),
                           "engine": engine_state(engine),
                           "probes": bus.snapshot()})
    return {"windows": states, "events": split_events(sink.records),
            "watchdog": wd.snapshot()}


TIME_PICK = st.tuples(st.sampled_from(["at", "before", "any", "last", "end"]),
                      st.integers(0, 63), st.floats(0.0, 0.999))
# a small pool of lines, so repeated writes to one line are common
LINE = st.tuples(st.integers(0, GEOMETRY.num_banks - 1),
                 st.sampled_from([0, 3, 17, 18, 40, 63]))
WRITE = st.tuples(LINE, st.integers(0, 1), TIME_PICK)
READ = st.tuples(LINE, TIME_PICK)
WINDOW = st.tuples(st.lists(WRITE, max_size=24), st.lists(READ, max_size=12))


class TestPostedTraffic:
    @settings(max_examples=25, deadline=None)
    @given(mode=st.sampled_from(MODES),
           policy=st.sampled_from(["per-bank", "all-bank"]),
           staggered=st.booleans(),
           windows=st.lists(WINDOW, min_size=1, max_size=3))
    def test_window_pass_matches_the_slot_walk(self, mode, policy, staggered,
                                               windows):
        if mode != "hybrid":
            windows = [(writes, []) for writes, _ in windows]
        assert_same(run_posted(True, mode, policy, staggered, windows),
                    run_posted(False, mode, policy, staggered, windows))

    @pytest.mark.parametrize("mode", MODES)
    def test_one_line_on_both_sides_of_its_slot(self, mode):
        """Writes to one line before, at and after its set's slot, then
        an empty window."""
        line = ((2, 17), 1)
        windows = [([(line[0], line[1], ("before", 5, 0.0)),
                     (line[0], line[1], ("at", 6, 0.0)),
                     (line[0], line[1], ("at", 5, 0.0)),
                     (line[0], line[1], ("last", 0, 0.5)),
                     (line[0], line[1], ("end", 0, 0.0))],
                    [((2, 17), ("before", 6, 0.0))]),
                   ([], [])]
        if mode != "hybrid":
            windows = [(writes, []) for writes, _ in windows]
        for policy in ("per-bank", "all-bank"):
            old = run_posted(True, mode, policy, True, windows)
            assert_same(old, run_posted(False, mode, policy, True, windows))
