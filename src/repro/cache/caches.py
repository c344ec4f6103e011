"""Set-associative write-back caches (the GEMS/Ruby stand-in).

The simulated hierarchy exists to produce the *DRAM-visible* traffic of
a program: the stream of fills (reads) and dirty writebacks (writes)
that misses in the last-level cache.  Only that stream feeds the value
transformation and the refresh model, so the caches are functional
(tags + LRU + dirty bits), not cycle-accurate.

Geometry defaults follow Table II: 32 KB 8-way L1D per core and a
shared 32-way LLC of 2 MB per core, 64 B lines.

A set is an insertion-ordered dict ``{tag: dirty}``, LRU line first, and
:meth:`CacheHierarchy.replay` walks a batch through it in one loop;
``tests/cache/reference.py`` keeps the list-scan caches as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass(frozen=True)
class MemoryEvent:
    """Traffic emitted toward DRAM by a cache miss."""

    line_addr: int
    is_write: bool  # True: dirty writeback; False: fill read


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
        # per set: {tag: dirty}, first key LRU, last key MRU
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    def access(self, line_addr: int, is_write: bool):
        """Access one line; returns (hit, evicted MemoryEvent or None).

        On a miss the line is allocated; if that evicts a dirty victim,
        the eviction is returned so the caller can push it down the
        hierarchy (or to DRAM).
        """
        set_idx, tag = line_addr % self.num_sets, line_addr // self.num_sets
        ways = self._sets[set_idx]
        dirty = ways.pop(tag, None)
        if dirty is not None:
            ways[tag] = dirty or is_write
            self.hits += 1
            return True, None
        self.misses += 1
        evicted = None
        if len(ways) >= self.ways:
            victim_tag = next(iter(ways))
            if ways.pop(victim_tag):
                victim_addr = victim_tag * self.num_sets + set_idx
                evicted = MemoryEvent(line_addr=victim_addr, is_write=True)
                self.writebacks += 1
        ways[tag] = is_write
        return False, evicted

    def flush(self) -> List[MemoryEvent]:
        """Write back every dirty line, MRU first (end-of-run drain)."""
        events = []
        for set_idx, ways in enumerate(self._sets):
            for tag, dirty in reversed(ways.items()):
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

    ``replay`` walks a batch of demand accesses through the hierarchy
    and returns the DRAM-bound stream: the LLC's fill reads and its
    dirty writebacks.  ``access`` is a one-access ``replay``.
    """

    def __init__(self, num_cores: int = 4, l1_bytes: int = 32 << 10,
                 l1_ways: int = 8, llc_bytes_per_core: int = 2 << 20,
                 llc_ways: int = 32, line_bytes: int = 64):
        if num_cores < 1:
            raise ValueError("a hierarchy needs at least one core")
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
        """Run one demand access through the hierarchy: its writebacks,
        then its fill, in the order they happen."""
        fills, writebacks = self.replay([core], [line_addr], [is_write])
        return ([MemoryEvent(a, True) for a in writebacks.tolist()]
                + [MemoryEvent(a, False) for a in fills.tolist()])

    def replay(self, core, line_addr, is_write) -> Tuple[np.ndarray, np.ndarray]:
        """Walk a batch of demand accesses through the hierarchy: the
        LLC's fills and dirty writebacks as int64 line addresses, each in
        the order they happen.  An L1 miss sends the LLC its dirty victim
        (a write that fetches nothing), then the demand access.  The
        batch is checked whole before any set or counter changes."""
        cores = np.asarray(core, dtype=np.int64)
        addrs = np.asarray(line_addr, dtype=np.int64)
        writes = np.asarray(is_write, dtype=bool)
        if not len(cores) == len(addrs) == len(writes):
            raise ValueError("replay arrays must have equal length")
        if len(cores) and not 0 <= cores.min() <= cores.max() < self.num_cores:
            raise ValueError("core index out of range")
        l1_sets = [l1._sets for l1 in self.l1]
        l1_n, l1_ways = self.l1[0].num_sets, self.l1[0].ways
        llc_sets, llc_n, llc_ways = (self.llc._sets, self.llc.num_sets,
                                     self.llc.ways)
        l1_hits, l1_writebacks = [0] * self.num_cores, [0] * self.num_cores
        llc_hits = 0
        fills, writebacks = [], []
        for c, addr, write in zip(cores.tolist(), addrs.tolist(),
                                  writes.tolist()):
            set_idx = addr % l1_n
            ways = l1_sets[c][set_idx]
            tag = addr // l1_n
            dirty = ways.pop(tag, None)
            if dirty is not None:  # L1 hit: the line becomes MRU
                ways[tag] = dirty or write
                l1_hits[c] += 1
                continue
            line, line_write, demand = addr, write, True
            if len(ways) >= l1_ways:
                victim = next(iter(ways))
                if ways.pop(victim):
                    l1_writebacks[c] += 1
                    line, line_write, demand = (victim * l1_n + set_idx,
                                                True, False)
            ways[tag] = write
            while True:  # the dirty L1 victim, if any, then the demand access
                set_idx = line % llc_n
                ways = llc_sets[set_idx]
                tag = line // llc_n
                dirty = ways.pop(tag, None)
                if dirty is not None:
                    ways[tag] = dirty or line_write
                    llc_hits += 1
                else:
                    if len(ways) >= llc_ways:
                        victim = next(iter(ways))
                        if ways.pop(victim):
                            writebacks.append(victim * llc_n + set_idx)
                    ways[tag] = line_write
                    if demand:
                        fills.append(line)
                if demand:
                    break
                line, line_write, demand = addr, write, True
        # a lookup that did not hit missed; the LLC looks up every L1
        # miss and every dirty L1 victim
        l1_lookups = np.bincount(cores, minlength=self.num_cores).tolist()
        llc_lookups = 0
        for l1, lookups, hits, evicted in zip(self.l1, l1_lookups, l1_hits,
                                              l1_writebacks):
            l1.hits += hits
            l1.misses += lookups - hits
            l1.writebacks += evicted
            llc_lookups += lookups - hits + evicted
        self.llc.hits += llc_hits
        self.llc.misses += llc_lookups - llc_hits
        self.llc.writebacks += len(writebacks)
        return (np.array(fills, dtype=np.int64),
                np.array(writebacks, dtype=np.int64))

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
