"""Tests for the write-back cache hierarchy."""

import numpy as np
import pytest

from repro.cache.caches import CacheHierarchy, MemoryEvent, SetAssociativeCache


class TestSetAssociativeCache:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=1000, ways=3)

    def test_miss_then_hit(self):
        cache = SetAssociativeCache(4096, ways=4)
        hit, _ = cache.access(1, False)
        assert not hit
        hit, _ = cache.access(1, False)
        assert hit
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache(2 * 64, ways=2)  # 1 set, 2 ways
        cache.access(0, False)
        cache.access(1, False)
        cache.access(0, False)  # 0 becomes MRU
        _, evicted = cache.access(2, False)  # evicts 1 (clean)
        assert evicted is None
        hit, _ = cache.access(0, False)
        assert hit

    def test_dirty_eviction_emits_writeback(self):
        cache = SetAssociativeCache(2 * 64, ways=2)
        cache.access(0, True)
        cache.access(1, False)
        _, evicted = cache.access(2, False)  # evicts dirty line 0
        assert evicted == MemoryEvent(line_addr=0, is_write=True)
        assert cache.writebacks == 1

    def test_write_hit_marks_dirty(self):
        cache = SetAssociativeCache(2 * 64, ways=2)
        cache.access(0, False)
        cache.access(0, True)  # dirty via hit
        cache.access(1, False)
        _, evicted = cache.access(2, False)
        assert evicted is not None and evicted.line_addr == 0

    def test_flush_writes_back_all_dirty(self):
        cache = SetAssociativeCache(4096, ways=4)
        for addr in range(8):
            cache.access(addr, addr % 2 == 0)
        events = cache.flush()
        assert {e.line_addr for e in events} == {0, 2, 4, 6}
        assert cache.hit_rate == 0.0

    def test_addresses_map_to_distinct_sets(self):
        cache = SetAssociativeCache(4096, ways=4)  # 16 sets
        cache.access(0, False)
        cache.access(16, False)  # same set, different tag
        cache.access(1, False)  # different set
        assert cache.misses == 3


class TestCacheHierarchy:
    def test_l1_hit_produces_no_traffic(self):
        h = CacheHierarchy(num_cores=1)
        events1 = h.access(0, 100, False)
        assert any(not e.is_write for e in events1)  # initial fill
        events2 = h.access(0, 100, False)
        assert events2 == []

    def test_llc_absorbs_other_cores_fills(self):
        h = CacheHierarchy(num_cores=2)
        h.access(0, 100, False)
        events = h.access(1, 100, False)  # L1 miss, LLC hit
        assert events == []

    def test_llc_miss_reaches_memory(self):
        h = CacheHierarchy(num_cores=1)
        events = h.access(0, 42, False)
        assert MemoryEvent(line_addr=42, is_write=False) in events

    def test_rejects_bad_core(self):
        h = CacheHierarchy(num_cores=2)
        with pytest.raises(ValueError):
            h.access(2, 0, False)
        with pytest.raises(ValueError):
            CacheHierarchy(num_cores=0)

        # a batch is checked whole: an out-of-range last core, or arrays
        # of different lengths, leave no trace of the accesses before
        def build():
            h = CacheHierarchy(num_cores=2, l1_bytes=256, l1_ways=2,
                               llc_bytes_per_core=512, llc_ways=2)
            h.replay([0, 1, 0], [5, 9, 13], [True, False, True])
            return h

        def counters(h):
            return [(c.hits, c.misses, c.writebacks) for c in [*h.l1, h.llc]]

        h, untouched = build(), build()
        with pytest.raises(ValueError, match="core index"):
            h.replay([0, 1, 0, 1, 2], [40, 41, 42, 43, 5],
                     [True, True, True, True, False])
        with pytest.raises(ValueError, match="equal length"):
            h.replay([0, 1], [40, 41, 42], [True, True])
        assert counters(h) == counters(untouched)
        batch = ([0, 1, 0, 1, 0], [40, 41, 42, 43, 5],
                 [False, True, True, False, False])
        for got, want in zip(h.replay(*batch), untouched.replay(*batch)):
            np.testing.assert_array_equal(got, want)
        assert counters(h) == counters(untouched)
        assert h.drain() == untouched.drain()

    def test_drain_flushes_dirty_lines_to_memory(self):
        h = CacheHierarchy(num_cores=1)
        h.access(0, 7, True)
        events = h.drain()
        assert any(e.line_addr == 7 and e.is_write for e in events)

    def test_working_set_larger_than_llc_generates_writebacks(self):
        h = CacheHierarchy(num_cores=1, l1_bytes=1024, l1_ways=2,
                           llc_bytes_per_core=4096, llc_ways=4)
        rng = np.random.default_rng(0)
        writebacks = 0
        for addr in rng.integers(0, 4096, size=4000):
            events = h.access(0, int(addr), True)
            writebacks += sum(e.is_write for e in events)
        assert writebacks > 0

    def test_hierarchy_hit_rates_reasonable(self):
        h = CacheHierarchy(num_cores=1)
        rng = np.random.default_rng(1)
        hot = rng.integers(0, 64, size=2000)  # tiny hot set
        for addr in hot:
            h.access(0, int(addr), False)
        assert h.l1[0].hit_rate > 0.9
