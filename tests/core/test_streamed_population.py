"""Population streams its content one segment at a time.

``ZeroRefreshSystem.populate`` draws, encodes and stores each 128-page
segment before drawing the next.  The oracle here is the path it
replaced: draw the whole allocation's content first (the segment loop
below, as ``BenchmarkProfile.generate_pages`` wrote it), then store it
all at once, here through the codec's line path.  Both must leave the
same device state, page classes and generator state.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.zero_refresh import ZeroRefreshSystem
from repro.workloads.benchmarks import SEGMENT_ALIGN_PAGES, benchmark_profile
from repro.workloads.synthetic import CLASS_IDS, WORDS_PER_LINE, generate_lines


def draw_all_pages(profile, n_pages, rng, lines_per_page):
    """Every page's content in one array, drawn segment by segment."""
    out = np.empty((n_pages, lines_per_page, WORDS_PER_LINE), dtype=np.uint64)
    shares = np.array([s for s, _ in profile.contamination])
    epsilons = np.array([e for _, e in profile.contamination])
    shares = shares / shares.sum()
    cursor = 0
    for name, pages in profile.segment_classes(n_pages, rng):
        count = pages * lines_per_page
        lines = generate_lines(name, count, rng)
        if name != "zero":
            eps = float(epsilons[rng.choice(len(epsilons), p=shares)])
            if eps > 0.0:
                outliers = np.flatnonzero(rng.random(count) < eps)
                if len(outliers):
                    lines[outliers] = generate_lines("random", len(outliers), rng)
        out[cursor:cursor + pages] = lines.reshape(pages, lines_per_page, -1)
        cursor += pages
    return out


def fill_all_at_once(system):
    """Replace ``system.fill_pages`` with the draw-everything-first path:
    all content drawn, then every line encoded and stored in one pass."""
    def fill_pages(pages, profile, rng, notify=False):
        geometry = system.config.geometry
        content = system._as_words(
            draw_all_pages(profile, len(pages), rng, geometry.lines_per_page))
        addrs = (pages[:, None] * geometry.lines_per_page
                 + np.arange(geometry.lines_per_page)).ravel()
        banks, rows, lines = system.controller.mapper.line_location(addrs)
        words = system.codec.encode_row(content.reshape(len(addrs), -1), rows)
        device = system.device
        np.moveaxis(device.data, 2, 0)[:, banks, rows, lines] = words
        device.dirty[banks, rows] = True
        device.last_refresh[banks, rows] = system.time_s

    system.fill_pages = fill_pages
    return system


def make_system(row_bytes=4096, word_bytes=8, total_bytes=4 << 20, seed=5):
    return ZeroRefreshSystem(SystemConfig.scaled(
        total_bytes=total_bytes, row_bytes=row_bytes, word_bytes=word_bytes,
        rows_per_ar=32, cell_interleave=16, seed=seed))


def test_cactusadm_reaches_the_rejecting_and_padded_classes():
    classes = set(benchmark_profile("cactusADM").mixture)
    assert {"zero", "uniform32", "float64", "padded"} <= classes


@pytest.mark.parametrize("fraction", [1.0, 0.7, 0.28])
@pytest.mark.parametrize("row_bytes", [2048, 4096, 8192])
@pytest.mark.parametrize("name,word_bytes", [("cactusADM", 8),
                                             ("cactusADM", 4), ("mcf", 8)])
def test_streamed_population_equals_drawing_everything_first(
        name, word_bytes, row_bytes, fraction):
    streamed = make_system(row_bytes, word_bytes)
    oracle = fill_all_at_once(make_system(row_bytes, word_bytes))
    for system in (streamed, oracle):
        system.populate(benchmark_profile(name), allocated_fraction=fraction)
    assert streamed.allocator.allocated_fraction == pytest.approx(
        fraction, abs=0.07)
    for field in ("data", "last_refresh", "dirty"):
        np.testing.assert_array_equal(getattr(streamed.device, field),
                                      getattr(oracle.device, field))
    np.testing.assert_array_equal(streamed._page_class, oracle._page_class)
    assert streamed.rng.bit_generator.state == oracle.rng.bit_generator.state
    # the content is in memory, and its classes reached the page table
    assert streamed.device.data.any()
    assert len(np.unique(streamed._page_class)) > 2


def test_generate_pages_is_the_segments_in_order():
    profile = benchmark_profile("cactusADM")
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    segments = list(profile.segments(300, rng_a, 64))
    assert [len(s) for s in segments] == [128, 128, 44]
    np.testing.assert_array_equal(np.concatenate(segments),
                                  draw_all_pages(profile, 300, rng_b, 64))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    np.testing.assert_array_equal(
        profile.generate_pages(300, np.random.default_rng(3), 64),
        np.concatenate(segments))


def test_population_holds_a_fixed_number_of_segments():
    """Traced peak of populating a fully allocated 8 MB mcf memory,
    above entry: at most 6 segment-sized arrays (3 MB), measured at 5.2,
    where drawing all the content first held the whole 8 MB of it as
    well (21.2).  A population beforehand keeps first-call imports out
    of the peak."""
    make_system(total_bytes=1 << 20).populate(benchmark_profile("mcf"))
    system = make_system(total_bytes=8 << 20)
    segment_bytes = SEGMENT_ALIGN_PAGES * system.config.geometry.page_bytes
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        system.populate(benchmark_profile("mcf"), allocated_fraction=1.0)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert system.allocator.allocated_fraction == 1.0
    assert (system._page_class != CLASS_IDS["zero"]).any()
    assert peak <= 6 * segment_bytes
