"""Batched content draws against one ``generate_lines`` call per line.

``ZeroRefreshSystem._draw_lines`` sends each run of lines whose classes
``draw_lines_in_order`` rebuilds through it, and draws ``text``,
``uniform32`` and ``float64`` lines one call at a time.  Each case draws
the same lines both ways, from generators in the same state, and
requires

* the same lines, bit for bit;
* the same ``bit_generator.state``, the held 32-bit half included;
* the same next ``random()`` and the same next 32-bit ``integers``.

Hypothesis draws class sequences over all 13 classes (0-300 lines, as
long runs or as alternations) and enters with the generator's 32-bit
buffer empty or full (after an odd number of earlier 32-bit draws).
The cases must reach a full buffer on entry, a padded line whose byte
draw skips a zero byte, and a padded line with no second bytes; the
``@example`` reaches all three whatever Hypothesis draws.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.workloads.synthetic as synthetic
from repro.core.config import SystemConfig
from repro.core.zero_refresh import ZeroRefreshSystem
from repro.workloads.synthetic import (
    BATCHED,
    CLASS_IDS,
    CLASS_NAMES,
    draw_lines_in_order,
    generate_lines,
)

PADDED = CLASS_IDS["padded"]
ALL = list(range(len(CLASS_NAMES)))
BATCHED_IDS = np.flatnonzero(BATCHED).tolist()


def sequences(classes):
    """0-300 class ids: long runs, or an alternation of two or more."""
    runs = st.lists(st.tuples(st.sampled_from(classes), st.integers(1, 80)),
                    max_size=8).map(
        lambda runs: [c for c, count in runs for _ in range(count)][:300])
    mixes = st.lists(st.sampled_from(classes), min_size=2, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=300))
    return st.one_of(runs, mixes)


def generator(seed, prior):
    """A generator after ``prior`` 32-bit draws: an odd count leaves it
    holding the high half of its last 64-bit output."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**32, size=prior, dtype=np.uint64)
    return rng


def clone(rng):
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = rng.bit_generator.state
    return copy


def note_padded(rng, seen):
    """Count what the next padded line's draws will meet: a zero byte
    among the first bytes it reads, or no float below one half (so no
    second bytes).  Reads a copy of ``rng``."""
    ahead = clone(rng)
    ahead.integers(0, 8, size=8)
    first = clone(ahead).integers(0, 2**32, size=2, dtype=np.uint64)
    seen["zero byte"] += bool((first.astype("<u4").view(np.uint8) == 0).any())
    ahead.integers(1, 256, size=8, dtype=np.uint8)
    seen["no second bytes"] += not (ahead.random(8) < 0.5).any()


def per_line(ids, rng, seen=None):
    """The oracle: one ``generate_lines`` call per line, in order."""
    lines = np.zeros((len(ids), 8), dtype=np.uint64)
    for i, class_id in enumerate(ids):
        if seen is not None and class_id == PADDED:
            note_padded(rng, seen)
        lines[i] = generate_lines(CLASS_NAMES[class_id], 1, rng)[0]
    return lines


def assert_same_draws(expected, got, oracle_rng, rng):
    np.testing.assert_array_equal(got, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert rng.random() == oracle_rng.random()
    assert (rng.integers(0, 2**32, dtype=np.uint64)
            == oracle_rng.integers(0, 2**32, dtype=np.uint64))


@pytest.fixture(scope="module")
def system():
    """A small system whose pages 0-12 hold classes 0-12."""
    system = ZeroRefreshSystem(SystemConfig.scaled(total_bytes=4 << 20))
    system._page_class[:len(CLASS_NAMES)] = ALL
    return system


def test_system_draws_equal_per_line_draws(system):
    seen = Counter()
    lines_per_page = system.config.geometry.lines_per_page

    @settings(max_examples=150, deadline=None)
    @example(ids=[PADDED] * 300, seed=3, prior=1, offset=0)
    @given(ids=sequences(ALL), seed=st.integers(0, 2**64 - 1),
           prior=st.integers(0, 3), offset=st.integers(0, 63))
    def check(ids, seed, prior, offset):
        seen["held on entry"] += prior % 2
        oracle_rng = generator(seed, prior)
        expected = per_line(ids, oracle_rng, seen)
        system.rng = generator(seed, prior)
        addrs = (np.array(ids, dtype=np.int64) * lines_per_page
                 + offset % lines_per_page)
        got = system._draw_lines(addrs)
        assert_same_draws(expected, got, oracle_rng, system.rng)

    check()
    assert seen["held on entry"] > 0
    assert seen["zero byte"] > 0
    assert seen["no second bytes"] > 0


@settings(max_examples=100, deadline=None)
@example(ids=[PADDED] * 20 + [CLASS_IDS["int32"]] * 100, seed=1, prior=1,
         reserve=1)
@given(ids=sequences(BATCHED_IDS), seed=st.integers(0, 2**64 - 1),
       prior=st.integers(0, 3), reserve=st.sampled_from([1, 3, 20]))
def test_batched_draws_equal_per_line_draws(ids, seed, prior, reserve):
    """``draw_lines_in_order`` alone, also when padded lines outrun the
    outputs drawn ahead for them (a reserve below a line's 17-18)."""
    oracle_rng = generator(seed, prior)
    expected = per_line(ids, oracle_rng)
    rng = generator(seed, prior)
    with mock.patch.object(synthetic, "_PADDED_RESERVE", reserve):
        got = draw_lines_in_order(ids, rng)
    assert_same_draws(expected, got, oracle_rng, rng)


def test_empty_draw_consumes_nothing():
    rng = generator(5, 1)
    before = rng.bit_generator.state
    assert draw_lines_in_order([], rng).shape == (0, 8)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("name", ["text", "uniform32", "float64"])
def test_rejecting_classes_are_refused(name):
    assert not BATCHED[CLASS_IDS[name]]
    with pytest.raises(ValueError, match="draws only"):
        draw_lines_in_order([CLASS_IDS["int32"], CLASS_IDS[name]],
                            np.random.default_rng(0))


def test_needs_pcg64():
    rng = np.random.Generator(np.random.Philox(0))
    with pytest.raises(TypeError, match="PCG64"):
        draw_lines_in_order([CLASS_IDS["int32"]], rng)
