"""Set-associative write-back L1 cache model.

Each NDP core has small private L1 I/D caches (Table 5: 16 KB, 2-way,
4-cycle, 64 B lines).  The paper assumes software-assisted coherence:
thread-private and shared read-only data are cacheable; shared read-write
data is *uncacheable* and always goes to memory.  Cacheability is therefore a
property of the access, decided by the workload, not the cache.

The model tracks tags with true LRU per set and returns hit/miss plus the
victim (for write-back accounting).  Data values are not stored — the
functional state of workloads lives in plain Python objects; the cache only
models *timing and traffic*.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.sim.stats import SystemStats


class AccessResult:
    __slots__ = ("hit", "writeback_line")

    def __init__(self, hit: bool, writeback_line: Optional[int] = None):
        self.hit = hit
        #: line address of a dirty victim that must be written back, if any.
        self.writeback_line = writeback_line


#: shared hit result: hits dominate and carry no victim, so one immutable
#: instance serves them all (callers only ever read the two fields).
_HIT = AccessResult(hit=True)


class L1Cache:
    """A private, set-associative, write-back, write-allocate cache."""

    __slots__ = ("line_bytes", "ways", "num_sets", "hit_cycles", "stats",
                 "_sets")

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_bytes: int,
        stats: SystemStats,
        hit_cycles: int = 4,
    ):
        if size_bytes % (ways * line_bytes):
            raise ValueError("cache size must divide into ways * line size")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        self.hit_cycles = hit_cycles
        self.stats = stats
        # set index -> OrderedDict(line_addr -> dirty flag); LRU at front.
        self._sets: Dict[int, OrderedDict] = {}

    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool) -> AccessResult:
        """Look up ``addr``; allocate on miss; return hit/miss + victim.

        :meth:`MemorySystem.access <repro.sim.memsys.MemorySystem.access>`
        resolves hits inline and calls this only on a miss; this stays the
        whole lookup, which :func:`repro.testing.per_access_reference`
        composes."""
        line = addr // self.line_bytes
        idx = line % self.num_sets
        cset = self._sets.get(idx)
        if cset is None:
            cset = self._sets[idx] = OrderedDict()

        if line in cset:
            cset.move_to_end(line)
            if is_write:
                cset[line] = True
            self.stats.cache_hits += 1
            return _HIT

        self.stats.cache_misses += 1
        writeback = None
        if len(cset) >= self.ways:
            victim, dirty = cset.popitem(last=False)
            if dirty:
                writeback = victim
        cset[line] = is_write
        return AccessResult(hit=False, writeback_line=writeback)

    def hit_resident(self, addr: int, count: int, dirty: bool) -> int:
        """Book ``count`` hits on ``addr``'s line, which the caller's last
        access left at the MRU end of its set (so LRU order does not move);
        ``dirty`` marks it written.  Returns their cycles."""
        if dirty:
            line = addr // self.line_bytes
            self._sets[line % self.num_sets][line] = True
        self.stats.cache_hits += count
        return count * self.hit_cycles

    def contains(self, addr: int) -> bool:
        line = addr // self.line_bytes
        return line in self._sets.get(line % self.num_sets, ())

    def invalidate(self, addr: int) -> bool:
        """Drop a line (software coherence / flush); returns True if present."""
        line = addr // self.line_bytes
        cset = self._sets.get(line % self.num_sets)
        if cset and line in cset:
            del cset[line]
            return True
        return False

    def flush_all(self) -> int:
        """Invalidate everything; returns the number of lines dropped."""
        dropped = sum(len(s) for s in self._sets.values())
        self._sets.clear()
        return dropped

    @property
    def lines_resident(self) -> int:
        return sum(len(s) for s in self._sets.values())
