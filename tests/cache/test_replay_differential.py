"""The batched hierarchy walk against the list-scan caches it replaced.

``tests/cache/reference.py`` keeps the old caches: each set a list of
``[tag, dirty]`` entries, MRU first, and one ``SetAssociativeCache.access``
per cache an access touches.  Each case replays one trace through both
and requires

* the same fills and the same writebacks, each in the same order;
* the same hits, misses and writebacks in every L1 and in the LLC;
* the same lines in every set, in the same LRU order, with the same
  dirty bits;
* the same events from ``drain()`` afterwards.

The new hierarchy takes the trace as one ``replay`` batch, as ``replay``
calls on random chunks, and through ``access`` one access at a time.

* ``test_drawn_traces``: Hypothesis draws the geometry (one set, one way,
  L1s with at least as many ways as the LLC, 1-4 cores), the footprint
  (inside one L1 up to four times the LLC) and the traffic (all reads,
  all writes or mixed).
* ``test_benchmark_shape``: 4 cores, 8 KB 8-way L1s and a 512 KB 32-way
  LLC under a seeded 20k-access program trace, replayed window by window
  as ``TraceDrivenDriver`` does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.caches import CacheHierarchy
from repro.cpu.trace import ProgramTrace
from tests.cache import reference


def build(cls, cores, l1_sets, l1_ways, llc_sets, llc_ways):
    """A hierarchy with exactly these set counts.

    Lines of 64 bytes per core let ``llc_sets`` be any count, not only
    a multiple of the core count; the caches never read the line size
    beyond their geometry.
    """
    line = 64 * cores
    return cls(num_cores=cores, l1_bytes=l1_sets * l1_ways * line,
               l1_ways=l1_ways, llc_bytes_per_core=llc_sets * llc_ways * 64,
               llc_ways=llc_ways, line_bytes=line)


def reference_events(hierarchy, cores, addrs, writes):
    """The old walk's DRAM events, one access at a time, in order."""
    events = []
    for core, addr, write in zip(cores.tolist(), addrs.tolist(),
                                 writes.tolist()):
        events += hierarchy.access(core, addr, write)
    return events


def split(events):
    """Fill and writeback line addresses, each in event order."""
    return ([e.line_addr for e in events if not e.is_write],
            [e.line_addr for e in events if e.is_write])


def replayed(hierarchy, cores, addrs, writes, cuts):
    """Fills and writebacks of ``replay`` calls on the chunks between
    ``cuts``, concatenated."""
    fills, writebacks = [], []
    bounds = [0, *cuts, len(addrs)]
    for start, stop in zip(bounds, bounds[1:]):
        f, w = hierarchy.replay(cores[start:stop], addrs[start:stop],
                                writes[start:stop])
        assert f.dtype == w.dtype == np.int64
        fills += f.tolist()
        writebacks += w.tolist()
    return fills, writebacks


def cache_state(cache):
    """Counters and each set's (tag, dirty) lines, LRU first."""
    if isinstance(cache, reference.SetAssociativeCache):
        sets = [[tuple(entry) for entry in reversed(ways)]
                for ways in cache._sets]
    else:
        sets = [list(ways.items()) for ways in cache._sets]
    return cache.hits, cache.misses, cache.writebacks, sets


def hierarchy_state(hierarchy):
    return [cache_state(cache) for cache in [*hierarchy.l1, hierarchy.llc]]


def assert_same_as_reference(old, new, cores, addrs, writes, cuts):
    """Replay through ``new`` three ways and require what ``old`` does;
    returns ``old``'s events."""
    events = reference_events(old, cores, addrs, writes)
    state = hierarchy_state(old)
    drained = old.drain()
    for how in ("batch", "chunks", "access"):
        h = new()
        if how == "access":
            assert reference_events(h, cores, addrs, writes) == events
        else:
            got = replayed(h, cores, addrs, writes,
                           cuts if how == "chunks" else [])
            assert got == split(events), how
        assert hierarchy_state(h) == state, how
        assert h.drain() == drained, how
        assert hierarchy_state(h) == hierarchy_state(old), how
    return events


@st.composite
def cases(draw):
    cores = draw(st.integers(1, 4))
    l1_sets = draw(st.sampled_from([1, 2, 3, 8]))
    l1_ways = draw(st.integers(1, 8))
    llc_sets = draw(st.sampled_from([1, 2, 5, 16]))
    llc_ways = draw(st.integers(1, 8))
    l1_lines = l1_sets * l1_ways
    llc_lines = llc_sets * llc_ways
    footprint = draw(st.one_of(
        st.integers(1, l1_lines),
        st.integers(1, 4 * max(llc_lines, l1_lines))))
    traffic = draw(st.sampled_from(["reads", "writes", "mixed"]))
    n = draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from([0, 1 << 30]))
    addrs = base + rng.integers(0, footprint, size=n)
    if traffic == "mixed":
        writes = rng.random(n) < draw(st.floats(0.05, 0.95))
    else:
        writes = np.full(n, traffic == "writes")
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    return dict(geometry=(cores, l1_sets, l1_ways, llc_sets, llc_ways),
                cores=rng.integers(0, cores, size=n).astype(np.int8),
                addrs=addrs.astype(np.int64), writes=writes, cuts=cuts)


class TestReplayDifferential:
    @settings(max_examples=80, deadline=None)
    @given(case=cases())
    def test_drawn_traces(self, case):
        geometry = case["geometry"]
        assert_same_as_reference(
            build(reference.CacheHierarchy, *geometry),
            lambda: build(CacheHierarchy, *geometry),
            case["cores"], case["addrs"], case["writes"], case["cuts"])

    def test_benchmark_shape(self):
        kwargs = dict(num_cores=4, l1_bytes=8 << 10, l1_ways=8,
                      llc_bytes_per_core=128 << 10, llc_ways=32)
        rng = np.random.default_rng(25)
        # 256 hot pages, 1 MB: twice the LLC
        trace = ProgramTrace.generate(np.arange(4096, 4096 + 256), 20_000,
                                      num_cores=4, write_fraction=0.25,
                                      rng=rng)
        windows = [2_500 * i for i in range(1, 8)]  # 8 driver windows
        events = assert_same_as_reference(
            reference.CacheHierarchy(**kwargs),
            lambda: CacheHierarchy(**kwargs), trace.core, trace.line_addr,
            trace.is_write, windows)
        fills, writebacks = split(events)
        assert len(fills) > 5_000 and len(writebacks) > 100
