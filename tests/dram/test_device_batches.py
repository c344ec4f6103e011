"""The rank's batch paths and its rank-wide detector.

``DramDevice`` keeps the rank's state in rank-wide arrays and updates
every bank of a batch with one flat index.  These tests hold the batch
paths to the per-line and per-row stores of ``tests/dram/reference.py``:

* ``TestBatchesMatchPerLineAccess``: Hypothesis batches of
  ``write_lines``, ``read_lines`` and ``activate_rows`` over all banks
  against in-order ``store_lines``/``load_line``/``activate_row``
  calls, with equal state, returned words and observer arguments.
* ``TestRankDetector``: per-bank cell layouts and spared rows, which
  no simulation path builds, through the engine's rank-wide detector,
  the per-bank reference detector and engine, and a zero-refresh
  window.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dram.device import DramDevice, LineWrites, discharged_value
from repro.dram.geometry import DramGeometry
from repro.dram.refresh import RefreshEngine
from repro.transform.celltype import CellTypeLayout
from tests.dram import reference

GEOMETRY = DramGeometry(rows_per_bank=32, rows_per_ar=16, cell_interleave=16,
                        num_banks=4)
CHIPS, WORDS = GEOMETRY.num_chips, GEOMETRY.words_per_line_per_chip


def layouts():
    return [CellTypeLayout(16, phase=b % 2) for b in range(GEOMETRY.num_banks)]


def seeded_device(seed=0):
    """A device over per-bank layouts with random words, stamps and
    dirty flags, written in place."""
    device = DramDevice(GEOMETRY, layouts=layouts())
    rng = np.random.default_rng(seed)
    device.data[...] = rng.integers(0, 2**64, size=device.data.shape,
                                    dtype=np.uint64)
    device.last_refresh[...] = rng.choice([0.0, 0.25, 0.5],
                                          size=device.last_refresh.shape)
    device.dirty[...] = rng.random(device.dirty.shape) < 0.5
    return device


def logged(device):
    """Observer calls as ``(kind, [(bank, row), ...])``, one per call."""
    log = []
    for kind, add in (("write", device.add_write_observer),
                      ("access", device.add_access_observer)):
        add(lambda banks, rows, kind=kind: log.append(
            (kind, list(zip(np.atleast_1d(banks).tolist(),
                            np.atleast_1d(rows).tolist())))))
    return log


def device_state(device):
    return device.data.copy(), device.last_refresh.copy(), device.dirty.copy()


# a small pool of places, so one (row, line) in two banks and one line
# written twice are common
SPOT = st.tuples(st.integers(0, GEOMETRY.num_banks - 1),
                 st.sampled_from([0, 5, 31]),
                 st.sampled_from([0, 7, GEOMETRY.lines_per_row - 1]))
STAMP = st.sampled_from([0.0, 0.25, 0.5, 0.75])
BATCH = st.tuples(st.sampled_from(["write", "read", "activate"]),
                  st.lists(st.tuples(SPOT, STAMP), max_size=12),
                  st.one_of(st.none(), STAMP))  # None: one stamp per line


def run_batches(batches, per_line):
    """Apply ``batches`` through the batch paths, or through the
    reference's per-line stores with ``per_line``; returns the device's
    state, the words every read returned and the observer log, one entry
    per non-empty batch and observer."""
    device = seeded_device()
    log = logged(device)
    rng = np.random.default_rng(1)
    reads = []
    for kind, entries, scalar in batches:
        banks, rows, lines = np.array([e[0] for e in entries],
                                      dtype=np.int64).reshape(-1, 3).T
        stamps = np.array([e[1] for e in entries], dtype=float)
        time_s = stamps if scalar is None else scalar
        per_stamp = np.broadcast_to(np.asarray(time_s, dtype=float), banks.shape)
        words = rng.integers(0, 2**64, size=(CHIPS, len(banks), WORDS),
                             dtype=np.uint64)
        if not per_line:
            if kind == "write":
                device.write_lines(LineWrites(banks, rows, lines, words), time_s)
            elif kind == "read":
                reads.append(device.read_lines(banks, rows, lines, time_s))
            else:
                device.activate_rows(banks, rows, time_s)
            continue
        calls, start = [], len(log)
        for i, (b, r, line) in enumerate(zip(banks.tolist(), rows.tolist(),
                                             lines.tolist())):
            if kind == "write":
                reference.store_lines(device, b, r, line, words[:, i:i + 1],
                                      per_stamp[i])
            elif kind == "read":
                calls.append(reference.load_line(device, b, r, line,
                                                 per_stamp[i]))
            else:
                reference.activate_row(device, b, r, per_stamp[i])
        if kind == "read":
            reads.append(np.stack(calls, axis=1) if calls else
                         np.empty((CHIPS, 0, WORDS), dtype=np.uint64))
        # one observer call per batch, in order: fold the per-line calls
        merged = {}
        for observer, pairs in log[start:]:
            merged.setdefault(observer, []).extend(pairs)
        log[start:] = list(merged.items())
    return device_state(device), reads, log


class TestBatchesMatchPerLineAccess:
    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(BATCH, max_size=6))
    @example(batches=[  # one (row, line) in two banks, per-line stamps
        ("write", [((0, 5, 7), 0.25), ((3, 5, 7), 0.5)], None),
        ("read", [((3, 5, 7), 0.75), ((0, 5, 7), 0.0)], None)])
    @example(batches=[  # one line twice, the later write stamped earlier
        ("write", [((2, 31, 0), 0.75), ((2, 31, 0), 0.25)], None),
        ("read", [((2, 31, 0), 0.0)], 0.5)])
    @example(batches=[  # scalar stamps and empty batches
        ("write", [((1, 0, 0), 0.0), ((1, 0, 7), 0.0)], 0.5),
        ("write", [], 0.25), ("read", [], None), ("activate", [], 0.75),
        ("activate", [((1, 0, 0), 0.0), ((1, 0, 7), 0.0)], 0.75)])
    def test_batches_match_line_by_line(self, batches):
        (data, stamps, dirty), reads, log = run_batches(batches, False)
        (want_data, want_stamps, want_dirty), want_reads, want_log = (
            run_batches(batches, True))
        np.testing.assert_array_equal(data, want_data)
        np.testing.assert_array_equal(stamps, want_stamps)
        np.testing.assert_array_equal(dirty, want_dirty)
        assert len(reads) == len(want_reads)
        for got, want in zip(reads, want_reads):
            np.testing.assert_array_equal(got, want)
            assert got.shape == want.shape and got.dtype == want.dtype
        assert log == want_log


# ----------------------------------------------------------------------
# the rank detector
# ----------------------------------------------------------------------
def blocked_device(seed):
    """Per-bank layouts; each block of ``num_chips`` rows is fully
    discharged (kind 0), discharged but for a few charged chip slices
    (kind 1), or fully discharged with one spared row (kind 2)."""
    device = DramDevice(GEOMETRY, layouts=layouts())
    rng = np.random.default_rng(seed)
    device.data[...] = discharged_value(
        device.anti, device.data.dtype)[..., None, None, None]
    blocks = GEOMETRY.rows_per_bank // CHIPS
    kinds = rng.integers(0, 3, size=(GEOMETRY.num_banks, blocks))
    kinds[0, 0], kinds[-1, -1] = 2, 0  # a spared row, a skippable block
    spared = []
    for bank, block in np.argwhere(kinds > 0).tolist():
        rows = block * CHIPS + np.arange(CHIPS)
        if kinds[bank, block] == 1:
            charged = rng.random((CHIPS, CHIPS)) < 0.1
            r, c = np.nonzero(charged)
            lines = rng.integers(0, GEOMETRY.lines_per_row, size=len(r))
            device.data[bank, rows[r], c, lines, 0] ^= (
                np.uint64(1) << rng.integers(0, 64, size=len(r)).astype(np.uint64))
        else:
            row = int(rows[rng.integers(0, CHIPS)])
            device.spared[bank, row] = True
            spared.append((bank, row))
    return device, spared


class TestRankDetector:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("staggered", [True, False])
    def test_derive_matches_the_per_bank_reference(self, seed, staggered):
        device, spared = blocked_device(seed)
        engine = RefreshEngine(device, staggered=staggered)
        oracle = reference.ReferenceRefreshEngine(device, staggered=staggered)
        banks, sets = np.divmod(
            np.arange(GEOMETRY.num_banks * GEOMETRY.ar_sets_per_bank),
            GEOMETRY.ar_sets_per_bank)
        derived = engine._derive(banks, sets)
        for i, (bank, ar_set) in enumerate(zip(banks.tolist(), sets.tolist())):
            np.testing.assert_array_equal(
                derived[i], oracle.derive_group_status(bank, ar_set))
        assert derived.any() and not derived.all()
        rows = np.arange(GEOMETRY.rows_per_bank)
        for b in range(GEOMETRY.num_banks):
            np.testing.assert_array_equal(
                device.detect_discharged_per_chip(np.full_like(rows, b), rows),
                reference.discharged_per_chip(device, b, rows))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("policy", ["per-bank", "all-bank"])
    def test_windows_refresh_every_group_over_a_spared_row(self, seed, policy):
        device, spared = blocked_device(seed)
        engine = RefreshEngine(device, policy=policy)
        tret = engine.timing.tret_s
        engine.run_window(0.0)
        delta = engine.run_window(tret)
        assert delta.groups_skipped > 0
        for bank, row in spared:
            assert (device.last_refresh[bank, row] >= tret).all()
        # the per-bank reference leaves the same state
        twin, _ = blocked_device(seed)
        oracle = reference.ReferenceRefreshEngine(twin, policy=policy)
        oracle.run_window(0.0)
        assert vars(oracle.run_window(tret)) == vars(delta)
        np.testing.assert_array_equal(twin.last_refresh, device.last_refresh)
        np.testing.assert_array_equal(twin.dirty, device.dirty)
