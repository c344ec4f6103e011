"""The list-scan caches the batched hierarchy walk is tested against.

:class:`SetAssociativeCache` keeps each set as a list of ``[tag, dirty]``
entries, MRU first: a lookup scans the ways, a hit moves its entry to
the front and a miss pops the LRU entry off the back.
:class:`CacheHierarchy` walks one access at a time through a core's L1
and the shared LLC with one ``SetAssociativeCache.access`` per cache it
touches, and returns the access's DRAM events in the order they happen.
``tests/cache/test_replay_differential.py`` drives these and
``repro.cache.caches`` from the same traces.
"""

from typing import List

from repro.cache.caches import MemoryEvent


class SetAssociativeCache:
    """Write-back, write-allocate cache with true-LRU replacement."""

    def __init__(self, capacity_bytes: int, ways: int, line_bytes: int = 64,
                 name: str = "cache"):
        if capacity_bytes % (ways * line_bytes) != 0:
            raise ValueError("capacity must divide into ways * line size")
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = capacity_bytes // (ways * line_bytes)
        # per set: list of (tag, dirty) in LRU order (front = MRU)
        self._sets: List[List[list]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    def _locate(self, line_addr: int):
        set_idx = line_addr % self.num_sets
        tag = line_addr // self.num_sets
        return set_idx, tag

    def access(self, line_addr: int, is_write: bool):
        """Access one line; returns (hit, evicted MemoryEvent or None).

        On a miss the line is allocated; if that evicts a dirty victim,
        the eviction is returned so the caller can push it down the
        hierarchy (or to DRAM).
        """
        set_idx, tag = self._locate(line_addr)
        ways = self._sets[set_idx]
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                ways.insert(0, ways.pop(i))
                entry[1] = entry[1] or is_write
                self.hits += 1
                return True, None
        self.misses += 1
        evicted = None
        if len(ways) >= self.ways:
            victim_tag, victim_dirty = ways.pop()
            if victim_dirty:
                victim_addr = victim_tag * self.num_sets + set_idx
                evicted = MemoryEvent(line_addr=victim_addr, is_write=True)
                self.writebacks += 1
        ways.insert(0, [tag, is_write])
        return False, evicted

    def flush(self) -> List[MemoryEvent]:
        """Write back every dirty line (end-of-run drain)."""
        events = []
        for set_idx, ways in enumerate(self._sets):
            for tag, dirty in ways:
                if dirty:
                    events.append(
                        MemoryEvent(line_addr=tag * self.num_sets + set_idx,
                                    is_write=True)
                    )
            ways.clear()
        self.writebacks += len(events)
        return events

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CacheHierarchy:
    """Per-core L1D caches over a shared inclusive-enough LLC (Table II).

    ``access`` returns the DRAM-bound events the access produced: at
    most one fill read (LLC miss) plus any dirty writebacks evicted on
    the way.
    """

    def __init__(self, num_cores: int = 4, l1_bytes: int = 32 << 10,
                 l1_ways: int = 8, llc_bytes_per_core: int = 2 << 20,
                 llc_ways: int = 32, line_bytes: int = 64):
        self.num_cores = num_cores
        self.line_bytes = line_bytes
        self.l1 = [
            SetAssociativeCache(l1_bytes, l1_ways, line_bytes, name=f"L1-{c}")
            for c in range(num_cores)
        ]
        self.llc = SetAssociativeCache(
            llc_bytes_per_core * num_cores, llc_ways, line_bytes, name="LLC"
        )

    def access(self, core: int, line_addr: int, is_write: bool) -> List[MemoryEvent]:
        """Run one demand access through the hierarchy."""
        if not 0 <= core < self.num_cores:
            raise ValueError("core index out of range")
        events: List[MemoryEvent] = []
        l1_hit, l1_evict = self.l1[core].access(line_addr, is_write)
        if l1_evict is not None:
            # dirty L1 victim is absorbed by (written into) the LLC
            _, llc_evict = self.llc.access(l1_evict.line_addr, True)
            if llc_evict is not None:
                events.append(llc_evict)
        if l1_hit:
            return events
        llc_hit, llc_evict = self.llc.access(line_addr, is_write)
        if llc_evict is not None:
            events.append(llc_evict)
        if not llc_hit:
            events.append(MemoryEvent(line_addr=line_addr, is_write=False))
        return events

    def drain(self) -> List[MemoryEvent]:
        """Flush every dirty line to DRAM (end of simulation)."""
        events: List[MemoryEvent] = []
        for l1 in self.l1:
            for event in l1.flush():
                _, llc_evict = self.llc.access(event.line_addr, True)
                if llc_evict is not None:
                    events.append(llc_evict)
        events.extend(self.llc.flush())
        return events
