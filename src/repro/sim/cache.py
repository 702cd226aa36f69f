"""Set-associative cache model with LRU replacement.

Tag-array only (no data payload): the functional layer owns the data; the
cache tracks *presence* so hit/miss behaviour, evictions, and utilisation
emerge from real access streams.  Addresses are byte addresses; the cache
operates on line addresses internally.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from .params import CacheParams

#: Per-line state bits.  A resident line's state is a plain int, so a
#: clean, unlocked line is the falsy ``0``: test presence with ``is None``
#: or ``in``, never by truthiness.
DIRTY = 1
#: HALO's reserved lock bit (§4.4): pins the line against eviction and
#: refuses invalidation.
LOCKED = 2


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self.invalidations = self.writebacks = 0

    def as_dict(self) -> Dict[str, float]:
        """Flat scalar view for the metrics registry (pull source)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "accesses": self.accesses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "writebacks": self.writebacks,
            "miss_rate": self.miss_rate,
        }

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Aggregate of two stats blocks (per-level rollups)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            invalidations=self.invalidations + other.invalidations,
            writebacks=self.writebacks + other.writebacks,
        )


class Cache:
    """A single set-associative cache level.

    The per-set structure is an ``OrderedDict`` mapping line address to
    its state bits (:data:`DIRTY`, :data:`LOCKED`), maintained in LRU
    order (least recent first).  States are ints rather than per-line
    objects, so a resident line costs one dict entry and nothing the
    garbage collector tracks.
    """

    def __init__(self, name: str, params: CacheParams) -> None:
        num_sets = params.num_sets
        if num_sets & (num_sets - 1):
            raise ValueError(f"cache {name!r} set count must be a power of two")
        self.name = name
        self.params = params
        self.num_sets = num_sets
        self.assoc = params.associativity
        self.line_bytes = params.line_bytes
        self.stats = CacheStats()
        self._sets: Dict[int, OrderedDict] = {}

    # -- address helpers -----------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr // self.line_bytes

    def set_index(self, line: int) -> int:
        return line & (self.num_sets - 1)

    def _set_for(self, line: int) -> OrderedDict:
        # Not ``setdefault(..., OrderedDict())``: that would allocate a
        # throwaway OrderedDict on every probe of an existing set, and this
        # runs once per access per level.
        sets = self._sets
        index = line & (self.num_sets - 1)
        cache_set = sets.get(index)
        if cache_set is None:
            cache_set = sets[index] = OrderedDict()
        return cache_set

    # -- operations ----------------------------------------------------------
    def lookup(self, line: int, write: bool = False) -> bool:
        """Probe for ``line``; on hit, refresh LRU (and mark dirty on write)."""
        cache_set = self._set_for(line)
        state = cache_set.get(line)
        if state is None:
            self.stats.misses += 1
            return False
        cache_set.move_to_end(line)
        if write:
            cache_set[line] = state | DIRTY
        self.stats.hits += 1
        return True

    def fill(self, line: int, dirty: bool = False) -> Optional[int]:
        """Install ``line``; return the evicted line address, if any.

        A locked victim is skipped (HALO's lock bit pins the line); the next
        least-recently-used unlocked line is evicted instead.
        """
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set.move_to_end(line)
            if dirty:
                cache_set[line] |= DIRTY
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim = next(iter(cache_set))
            if cache_set[victim] & LOCKED:
                for candidate, candidate_state in cache_set.items():
                    if not candidate_state & LOCKED:
                        victim = candidate
                        break
                # No unlocked line (pathological: whole set locked): the
                # true LRU line goes anyway.
            if cache_set.pop(victim) & DIRTY:
                self.stats.writebacks += 1
            self.stats.evictions += 1
        cache_set[line] = DIRTY if dirty else 0
        return victim

    def contains(self, line: int) -> bool:
        return line in self._sets.get(self.set_index(line), ())

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; refuses if the HALO lock bit is set."""
        cache_set = self._sets.get(self.set_index(line))
        if cache_set is None:
            return False
        state = cache_set.get(line)
        if state is None or state & LOCKED:
            # Absent, or locked: "snoop miss" response, retry later (§4.4).
            return False
        del cache_set[line]
        self.stats.invalidations += 1
        return True

    def invalidate_range(self, first: int, last: int) -> int:
        """:meth:`invalidate` every line from ``first`` to ``last``
        (inclusive); returns how many were dropped.

        Walks the range or the resident lines, whichever is shorter.  The
        result is the same either way: each set loses the same lines, a
        deletion keeps the LRU order of the lines left, and locked lines
        stay.
        """
        sets = self._sets
        dropped = 0
        if last - first + 1 <= sum(map(len, sets.values())):
            mask = self.num_sets - 1
            for line in range(first, last + 1):
                cache_set = sets.get(line & mask)
                if cache_set is not None:
                    state = cache_set.get(line)
                    if state is not None and not state & LOCKED:
                        del cache_set[line]
                        dropped += 1
        else:
            for cache_set in sets.values():
                doomed = [line for line, state in cache_set.items()
                          if first <= line <= last and not state & LOCKED]
                for line in doomed:
                    del cache_set[line]
                dropped += len(doomed)
        self.stats.invalidations += dropped
        return dropped

    # -- HALO lock bit (reserved cache-line metadata bit, §4.4) --------------
    def lock(self, line: int) -> bool:
        cache_set = self._sets.get(self.set_index(line))
        if cache_set is None or line not in cache_set:
            return False
        cache_set[line] |= LOCKED
        return True

    def unlock(self, line: int) -> bool:
        cache_set = self._sets.get(self.set_index(line))
        if cache_set is None or line not in cache_set:
            return False
        cache_set[line] &= ~LOCKED
        return True

    def is_locked(self, line: int) -> bool:
        cache_set = self._sets.get(self.set_index(line))
        if cache_set is None:
            return False
        state = cache_set.get(line)
        return state is not None and bool(state & LOCKED)

    # -- introspection --------------------------------------------------------
    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets.values())

    @property
    def locked_lines(self) -> int:
        """Resident lines whose HALO lock bit is currently set."""
        return sum(1 for s in self._sets.values()
                   for state in s.values() if state & LOCKED)

    def utilisation(self) -> float:
        """Fraction of capacity currently holding lines."""
        capacity = self.num_sets * self.assoc
        return self.resident_lines / capacity if capacity else 0.0

    def flush(self) -> None:
        self._sets.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Cache({self.name}, {self.params.size_bytes}B, "
                f"{self.assoc}-way, {self.resident_lines} lines)")
