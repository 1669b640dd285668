"""Set-associative tag arrays: the caches, and the bookkeeping the BTB shares.

Data values always come from :class:`~repro.memory.memory.MainMemory` (plus
LSQ forwarding inside the core); the caches model *timing* and the covert-
channel state — which lines are resident and in what replacement order.
Crucially for the paper, speculative fills are **not** reverted on squash:
a wrong-path access that calls :meth:`Cache.access` leaves its line behind,
which is exactly the property Spectre-style transmit phases exploit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import CacheConfig
from repro.memory.replacement import LRUPolicy


class CacheStats:
    """Hit/miss accounting for one cache."""

    __slots__ = ("hits", "misses", "fills", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.invalidations = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class TagArray:
    """Set, way and LRU bookkeeping for a set-associative array.

    Keys are non-negative ints (line addresses for :class:`Cache`, branch
    PCs for :class:`~repro.frontend.btb.BTB`); key *k* lives in set
    ``k & (num_sets - 1)``.  A set's key -> way map, way -> key list and
    LRU state are created on the set's first insert, so an untouched set
    costs nothing and a lookup there is a miss that allocates nothing.

    Subclasses read ``_ways``/``_repl`` inline on their hit paths and
    leave inserting, evicting, invalidating and clearing to the methods
    here.

    Args:
        num_sets: number of sets (a power of two).
        assoc: ways per set.
    """

    def __init__(self, num_sets: int, assoc: int):
        self.num_sets = num_sets
        self.assoc = assoc
        self._set_mask = num_sets - 1
        self._clear()

    def _clear(self) -> None:
        """Return every set to its never-touched state."""
        # Per set index, each None until the set's first insert: key ->
        # way, way -> key (None marks a free way), LRU state.
        self._ways: List[Optional[Dict[int, int]]] = [None] * self.num_sets
        self._keys: List[Optional[List[Optional[int]]]] = (
            [None] * self.num_sets
        )
        self._repl: List[Optional[LRUPolicy]] = [None] * self.num_sets

    def _insert(self, index: int, key: int) -> Optional[int]:
        """Install absent *key* in set *index*, in the lowest free way or
        else the LRU victim.  Returns the evicted key, or None."""
        ways = self._ways[index]
        if ways is None:
            ways = self._ways[index] = {}
            keys = self._keys[index] = [None] * self.assoc
            repl = self._repl[index] = LRUPolicy(self.assoc)
        else:
            keys = self._keys[index]
            repl = self._repl[index]
        evicted = None
        if len(ways) < self.assoc:
            way = keys.index(None)
        else:
            way = repl.victim()
            evicted = keys[way]
            del ways[evicted]
        ways[key] = way
        keys[way] = key
        repl.touch(way)
        return evicted

    def _remove(self, index: int, key: int) -> bool:
        """Drop *key* from set *index*; True when it was resident."""
        ways = self._ways[index]
        if ways is None:
            return False
        way = ways.pop(key, None)
        if way is None:
            return False
        self._keys[index][way] = None
        self._repl[index].forget(way)
        return True


class Cache(TagArray):
    """One level of set-associative LRU cache (tags only).

    Args:
        config: geometry and latency.
        name: label for stats/debugging.
    """

    def __init__(self, config: CacheConfig, name: str):
        super().__init__(config.num_sets, config.assoc)
        self.config = config
        self.name = name
        self._line_shift = config.line_bytes.bit_length() - 1
        self.stats = CacheStats()

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no stats, no LRU update)."""
        line = addr >> self._line_shift
        ways = self._ways[line & self._set_mask]
        return ways is not None and line in ways

    def access(self, addr: int, fill: bool = True) -> bool:
        """Look up *addr*; returns True on hit.

        On a hit the replacement state is updated.  On a miss, when *fill*
        is True the line is installed (evicting a victim if the set is
        full).  InvisiSpec's speculative loads pass ``fill=False`` so the
        d-cache is left untouched.
        """
        line = addr >> self._line_shift
        index = line & self._set_mask
        ways = self._ways[index]
        if ways is not None:
            way = ways.get(line)
            if way is not None:
                self.stats.hits += 1
                self._repl[index].touch(way)
                return True
        self.stats.misses += 1
        if fill:
            self._insert(index, line)
            self.stats.fills += 1
        return False

    def fill(self, addr: int) -> None:
        """Install the line holding *addr* (used by delayed exposures)."""
        line = addr >> self._line_shift
        index = line & self._set_mask
        ways = self._ways[index]
        way = None if ways is None else ways.get(line)
        if way is None:
            self._insert(index, line)
            self.stats.fills += 1
        else:
            self._repl[index].touch(way)

    def invalidate(self, addr: int) -> bool:
        """Remove the line holding *addr* (CLFLUSH). True if it was present."""
        line = addr >> self._line_shift
        if not self._remove(line & self._set_mask, line):
            return False
        self.stats.invalidations += 1
        return True

    def flush_all(self) -> None:
        """Empty the entire cache, replacement state included; the stats
        counters are kept."""
        self._clear()

    def resident_lines(self) -> int:
        """Total number of valid lines (for tests)."""
        return sum(len(ways) for ways in self._ways if ways is not None)
