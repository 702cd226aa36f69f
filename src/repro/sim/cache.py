"""Set-associative cache model with LRU replacement.

Tag-array only (no data payload): the functional layer owns the data; the
cache tracks *presence* so hit/miss behaviour, evictions, and utilisation
emerge from real access streams.  Addresses are byte addresses; the cache
operates on line addresses internally.

Public contract: a :class:`Cache`'s sets, their LRU order, its line
states and its :class:`CacheStats` are a function of the operation
sequence alone.  ``fill_many(lines)`` equals ``[fill(line) for line in
lines]`` with every ``None`` dropped: the same sets, states and stats,
and the evicted lines in eviction order, though it never installs the
lines of a run it can prove that same run evicts.  ``locked_lines`` is
the number of resident lines whose :data:`LOCKED` bit is set, kept as a
count, so reading it costs nothing whatever the cache holds.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    garbage collector tracks.  :meth:`fill_many` installs a batch of
    lines in one loop and skips the lines of a run the batch itself
    would evict again, and a running count of locked lines answers
    :attr:`locked_lines` without walking the sets.

    The memory hierarchy's access walk
    (:meth:`~repro.sim.hierarchy.MemoryHierarchy.core_accessor`) probes
    and fills these sets in place by the same rules, handing a pinned LRU
    line to :meth:`_evict_pinned` and an LLC install to :meth:`_install`,
    so a change to the set layout or the replacement rule changes it too
    (``tests/sim/test_reference_hierarchy.py`` holds the two equal).
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
        # Resident lines whose LOCKED bit is set: every path that sets,
        # clears or drops that bit keeps it.
        self._locked = 0

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
        return self._install(cache_set, line, DIRTY if dirty else 0)

    def _install(self, cache_set: OrderedDict, line: int,
                 state: int = 0) -> Optional[int]:
        """:meth:`fill`'s miss half: put ``line``, absent from its set
        ``cache_set``, in as the most recently used line with ``state``;
        returns the evicted line, if any."""
        victim = None
        if len(cache_set) >= self.assoc:
            victim, evicted = cache_set.popitem(last=False)
            if evicted & LOCKED:
                victim, evicted = self._evict_pinned(cache_set, victim,
                                                     evicted)
            if evicted & DIRTY:
                self.stats.writebacks += 1
            self.stats.evictions += 1
        cache_set[line] = state
        return victim

    def fill_many(self, lines: Sequence[int]) -> List[int]:
        """:meth:`fill` of each line, clean, in order; returns the evicted
        lines in eviction order.

        One loop with the set lookup inlined, for region warm-ups that
        install thousands of lines into one cache.  A run of more than
        ``assoc`` consecutive lines of one set, all distinct, into a set
        holding no locked line, none of them and no more lines than ways,
        is fresh: the loop would install every one of them and evict all
        but the last ``assoc`` again.  Only those last ``assoc`` are
        filled, evicting the set's residents in LRU order, and the rest
        follow the residents among the victims, in run order, each one
        eviction and no writeback.
        """
        lines = np.asarray(lines, dtype=np.uint64)
        values = lines.tolist()
        victims: List[int] = []
        assoc = self.assoc
        done = 0
        if len(values) > assoc:
            sets = lines & np.uint64(self.num_sets - 1)
            # A run longer than ``assoc`` has its first and its
            # ``assoc``-th next line in one set.
            if (sets[assoc:] == sets[:-assoc]).any():
                breaks = np.flatnonzero(sets[1:] != sets[:-1]) + 1
                starts = np.concatenate(([0], breaks))
                stops = np.append(breaks, len(values))
                long_runs = np.flatnonzero(stops - starts > assoc)
                for start, stop in zip(starts[long_runs].tolist(),
                                       stops[long_runs].tolist()):
                    self._fill_lines(values[done:start], victims)
                    done = start
                    if self._fresh_run(values[start:stop]):
                        tail = stop - assoc
                        self._fill_lines(values[tail:stop], victims)
                        victims.extend(values[start:tail])
                        self.stats.evictions += tail - start
                        done = stop
        self._fill_lines(values[done:], victims)
        return victims

    def _fresh_run(self, run: List[int]) -> bool:
        """Whether ``run``, lines of one set, are distinct and go into a
        set holding no locked line, none of them and at most ``assoc``
        lines (see :meth:`fill_many`)."""
        distinct = set(run)
        if len(distinct) < len(run):
            return False
        cache_set = self._sets.get(run[0] & (self.num_sets - 1))
        return cache_set is None or (
            len(cache_set) <= self.assoc
            and distinct.isdisjoint(cache_set)
            and not (self._locked and any(
                state & LOCKED for state in cache_set.values())))

    def _fill_lines(self, lines: List[int], victims: List[int]) -> None:
        """:meth:`fill` of each line, clean, appending every victim."""
        sets = self._sets
        mask = self.num_sets - 1
        assoc = self.assoc
        evict = victims.append
        evictions = writebacks = 0
        for line in lines:
            index = line & mask
            cache_set = sets.get(index)
            if cache_set is None:
                cache_set = sets[index] = OrderedDict()
            elif line in cache_set:
                cache_set.move_to_end(line)
                continue
            if len(cache_set) >= assoc:
                victim, state = cache_set.popitem(last=False)
                if state & LOCKED:
                    victim, state = self._evict_pinned(cache_set, victim,
                                                       state)
                if state & DIRTY:
                    writebacks += 1
                evict(victim)
                evictions += 1
            cache_set[line] = 0
        self.stats.evictions += evictions
        self.stats.writebacks += writebacks

    def _evict_pinned(self, cache_set: OrderedDict, lru: int,
                      state: int) -> Tuple[int, int]:
        """Evict from a full set whose popped LRU line ``lru`` is locked.

        HALO's lock bit pins ``lru``: it goes back to the front, and the
        least recently used unlocked line is popped instead; with no
        unlocked line (pathological: whole set locked), ``lru`` goes
        anyway.  Returns the victim and its state, and keeps the locked
        count.
        """
        cache_set[lru] = state
        cache_set.move_to_end(lru, last=False)
        victim = lru
        for candidate, candidate_state in cache_set.items():
            if not candidate_state & LOCKED:
                victim = candidate
                break
        state = cache_set.pop(victim)
        if state & LOCKED:
            self._locked -= 1
        return victim, state

    def contains(self, line: int) -> bool:
        return line in self._sets.get(line & (self.num_sets - 1), ())

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; refuses if the HALO lock bit is set."""
        cache_set = self._sets.get(line & (self.num_sets - 1))
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
        cache_set = self._sets.get(line & (self.num_sets - 1))
        state = None if cache_set is None else cache_set.get(line)
        if state is None:
            return False
        if not state & LOCKED:
            cache_set[line] = state | LOCKED
            self._locked += 1
        return True

    def unlock(self, line: int) -> bool:
        cache_set = self._sets.get(line & (self.num_sets - 1))
        state = None if cache_set is None else cache_set.get(line)
        if state is None:
            return False
        if state & LOCKED:
            cache_set[line] = state & ~LOCKED
            self._locked -= 1
        return True

    def is_locked(self, line: int) -> bool:
        cache_set = self._sets.get(line & (self.num_sets - 1))
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
        """Resident lines whose HALO lock bit is currently set (a count
        the lock, unlock, fill and flush paths keep; no walk)."""
        return self._locked

    def utilisation(self) -> float:
        """Fraction of capacity currently holding lines."""
        capacity = self.num_sets * self.assoc
        return self.resident_lines / capacity if capacity else 0.0

    def flush(self) -> None:
        self._sets.clear()
        self._locked = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Cache({self.name}, {self.params.size_bytes}B, "
                f"{self.assoc}-way, {self.resident_lines} lines)")
