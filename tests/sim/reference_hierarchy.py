"""Frozen call-by-call access paths — the memory walk's reference of record.

This is a snapshot of ``MemoryHierarchy``'s core and CHA access paths as
they stood before a core load or store became one inlined closure
(``MemoryHierarchy.core_accessor``): ``_core_access``,
``_core_access_fill``, ``_gain_ownership``, ``_private_holder``,
``_cha_access``, ``lock_line`` and ``unlock_line``, with the helpers they
called (``_llc_latency_from``, ``_fill_private``, ``_install_llc``,
``_back_invalidate``) and the cache, snoop-filter and interconnect
methods those reached, each copied as it was.
``tests/sim/test_reference_hierarchy.py`` drives random access, lock,
warm and flush sequences through this model and through the live one and
requires the same results and the same state after every step.

The only additions are the ``reached`` counts, which record the levels
and branches a sequence exercised, so that a sequence that never leaves
L1 cannot pass for a test of the walk.  Do not modernise this module;
its whole value is that it does not change.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.sim.cache import DIRTY, LOCKED, Cache
from repro.sim.coherence import SnoopFilter
from repro.sim.hierarchy import (
    LOCK_RETRY_CYCLES, AccessResult, MemoryHierarchy)
from repro.sim.interconnect import Interconnect


class FrozenCache(Cache):
    """``Cache`` with the probe, fill, invalidate and lock-bit methods the
    access paths called, as they were."""

    reached: Counter

    def lookup(self, line: int, write: bool = False) -> bool:
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
                self.reached["locked_lru_victim"] += 1
                victim = self._unlocked_victim(cache_set, victim)
            state = cache_set.pop(victim)
            if state:
                if state & DIRTY:
                    self.stats.writebacks += 1
                if state & LOCKED:
                    self._locked -= 1
            self.stats.evictions += 1
        cache_set[line] = DIRTY if dirty else 0
        return victim

    @staticmethod
    def _unlocked_victim(cache_set, lru: int) -> int:
        for candidate, state in cache_set.items():
            if not state & LOCKED:
                return candidate
        return lru

    def contains(self, line: int) -> bool:
        return line in self._sets.get(self.set_index(line), ())

    def invalidate(self, line: int) -> bool:
        cache_set = self._sets.get(self.set_index(line))
        if cache_set is None:
            return False
        state = cache_set.get(line)
        if state is None or state & LOCKED:
            return False
        del cache_set[line]
        self.stats.invalidations += 1
        return True

    def lock(self, line: int) -> bool:
        cache_set = self._sets.get(self.set_index(line))
        if cache_set is None or line not in cache_set:
            return False
        state = cache_set[line]
        if not state & LOCKED:
            cache_set[line] = state | LOCKED
            self._locked += 1
        return True

    def unlock(self, line: int) -> bool:
        cache_set = self._sets.get(self.set_index(line))
        if cache_set is None or line not in cache_set:
            return False
        state = cache_set[line]
        if state & LOCKED:
            cache_set[line] = state & ~LOCKED
            self._locked -= 1
        return True

    def is_locked(self, line: int) -> bool:
        cache_set = self._sets.get(self.set_index(line))
        if cache_set is None:
            return False
        state = cache_set.get(line)
        return state is not None and bool(state & LOCKED)


class FrozenSnoopFilter(SnoopFilter):
    """``SnoopFilter`` with its sharer tracking and store invalidation as
    they were (``record_fill`` allocated a set per call, ``sharers_of``
    copied)."""

    def record_fill(self, line: int, core_id: int) -> None:
        self._sharers.setdefault(line, set()).add(core_id)

    def record_eviction(self, line: int, core_id: int) -> None:
        sharers = self._sharers.get(line)
        if sharers is not None:
            sharers.discard(core_id)
            if not sharers:
                self._sharers.pop(line, None)

    def sharers_of(self, line: int):
        return set(self._sharers.get(line, ()))

    def other_sharers(self, line: int, core_id: int):
        return self.sharers_of(line) - {core_id}

    def invalidate_for_store(self, line: int, writer_core: int,
                             locked: bool = False) -> dict:
        result = {"sharers": 0, "snoop_miss": False, "metadata_snoop": False}
        if locked:
            self.stats.snoop_misses += 1
            result["snoop_miss"] = True
            return result
        others = self.other_sharers(line, writer_core)
        if others:
            self.stats.invalidation_rounds += 1
            self.stats.lines_invalidated += len(others)
            self._sharers[line] = {writer_core}
            result["sharers"] = len(others)
        else:
            self.record_fill(line, writer_core)
        if line in self._metadata_holder:
            self.stats.metadata_snoops += 1
            self._metadata_holder.pop(line, None)
            result["metadata_snoop"] = True
        return result


class FrozenInterconnect(Interconnect):
    """``Interconnect`` with ``transfer_latency`` as it was."""

    def transfer_latency(self, src_stop: int, dst_stop: int) -> int:
        hops = self.hops(src_stop, dst_stop)
        crossings = self.link_crossings(src_stop, dst_stop)
        self.stats.messages += 1
        self.stats.total_hops += hops
        latency = hops * self.latency.hop
        if crossings:
            self.stats.link_crossings += crossings
            latency += crossings * self.link_latency
        if self.fault_hook is not None:
            latency += self.fault_hook(src_stop, dst_stop, hops)
        return latency


class ReferenceHierarchy(MemoryHierarchy):
    """A ``MemoryHierarchy`` whose core and CHA accesses and lock bits run
    the frozen call-by-call paths over frozen caches, snoop filter and
    interconnect.  ``warm_llc``, ``flush_private`` and ``flush_region`` are
    the live methods (they reach the frozen back-invalidation)."""

    def __init__(self, machine=None, obs=None) -> None:
        super().__init__(machine, obs)
        #: Levels and branches the frozen paths reached, by name.
        self.reached: Counter = Counter()
        machine = self.machine
        self.l1 = [FrozenCache(f"L1D.{i}", machine.l1d)
                   for i in range(machine.cores)]
        self.l2 = [FrozenCache(f"L2.{i}", machine.l2)
                   for i in range(machine.cores)]
        self.llc = [FrozenCache(f"LLC.{s}", machine.llc_slice)
                    for s in range(machine.llc_slices)]
        for cache in self.l1 + self.l2 + self.llc:
            cache.reached = self.reached
        self.interconnect = FrozenInterconnect(machine.llc_slices,
                                               self.latency, self.topology)
        self.snoop_filter = FrozenSnoopFilter(machine.cores,
                                              machine.llc_slices)

    def core_accessor(self, core_id: int):  # pragma: no cover - guard
        raise AssertionError("the reference has no inlined walk")

    # -- the frozen paths -------------------------------------------------------
    def _llc_latency_from(self, stop: int, slice_id: int) -> int:
        interconnect = self.interconnect
        hops = interconnect.hops(stop, slice_id)
        latency = (self.latency.llc_hit
                   + 2 * self.latency.hop * (hops - self._avg_hops))
        if self._link_round_trip:
            crossings = interconnect.link_crossings(stop, slice_id)
            if crossings:
                latency += self._link_round_trip * crossings
                interconnect.stats.link_crossings += crossings
        return max(latency, self.latency.l2_hit + 2)

    def core_access(self, core_id: int, addr: int,
                    write: bool = False) -> AccessResult:
        result = self._core_access(core_id, addr, write)
        self._m_core_cycles.observe(result.latency)
        self._m_core_level[result.level].inc()
        if result.lock_retries:
            self._m_lock_retries.inc(result.lock_retries)
        self.reached[result.level] += 1
        return result

    def _core_access(self, core_id: int, addr: int,
                     write: bool = False) -> AccessResult:
        line = self.line_of(addr)
        extra = 0
        retries = 0
        if self.tlbs is not None:
            extra += self.tlbs[core_id].access(addr)
        if write:
            ownership, retries = self._gain_ownership(line, core_id)
            extra += ownership
        if self.l1[core_id].lookup(line, write=write):
            return AccessResult(self.latency.l1_hit + extra, "L1",
                                self.interconnect.slice_of_line(line),
                                retries)
        return self._core_access_fill(core_id, line, write, extra, retries)

    def _core_access_fill(self, core_id: int, line: int, write: bool,
                          extra: int, retries: int) -> AccessResult:
        l1 = self.l1[core_id]
        l2 = self.l2[core_id]
        slice_of_line = self.interconnect.slice_of_line
        if l2.lookup(line, write=write):
            self._fill_private(l1, line, core_id, dirty=write)
            return AccessResult(self.latency.l2_hit + extra, "L2",
                                slice_of_line(line), retries)

        slice_id = slice_of_line(line)
        llc = self.llc[slice_id]
        stop = self.core_stop(core_id)
        if llc.lookup(line, write=write):
            crossings = self.interconnect.stats.link_crossings
            latency = self._llc_latency_from(stop, slice_id) + extra
            if self.interconnect.stats.link_crossings != crossings:
                self.reached["llc_hit_link_crossing"] += 1
            self._fill_private(l2, line, core_id, dirty=False)
            self._fill_private(l1, line, core_id, dirty=write)
            self.snoop_filter.record_fill(line, core_id)
            return AccessResult(latency, "LLC", slice_id, retries)

        holder = self._private_holder(line, exclude=core_id)
        if holder is not None:
            latency = (self._llc_latency_from(stop, slice_id)
                       + self.latency.snoop_invalidate + extra)
            self._install_llc(slice_id, line)
            self._fill_private(l2, line, core_id, dirty=False)
            self._fill_private(l1, line, core_id, dirty=write)
            self.snoop_filter.record_fill(line, core_id)
            return AccessResult(latency, "PRIV", slice_id, retries)

        latency = self.dram.access_latency(write=write) + extra
        if self._link_round_trip:
            crossings = self.interconnect.link_crossings(stop, slice_id)
            if crossings:
                latency += self._link_round_trip * crossings
                self.interconnect.stats.link_crossings += crossings
        self._install_llc(slice_id, line)
        self._fill_private(l2, line, core_id, dirty=False)
        self._fill_private(l1, line, core_id, dirty=write)
        self.snoop_filter.record_fill(line, core_id)
        return AccessResult(latency, "DRAM", slice_id, retries)

    def cha_access(self, accelerator_slice: int, addr: int,
                   write: bool = False) -> AccessResult:
        result = self._cha_access(accelerator_slice, addr, write)
        self._m_cha_cycles.observe(result.latency)
        self._m_cha_level[result.level].inc()
        self.reached["cha." + result.level] += 1
        return result

    def _cha_access(self, accelerator_slice: int, addr: int,
                    write: bool = False) -> AccessResult:
        line = self.line_of(addr)
        home = self.slice_of(addr)
        transfer = self.interconnect.transfer_latency(accelerator_slice, home)
        llc = self.llc[home]
        if llc.lookup(line, write=write):
            return AccessResult(self.latency.cha_llc_hit + transfer,
                                "LLC", home)
        holder = self._private_holder(line)
        if holder is not None:
            latency = (self.latency.cha_llc_hit + transfer
                       + self.latency.snoop_invalidate // 2)
            self._install_llc(home, line)
            return AccessResult(latency, "PRIV", home)
        latency = min(self.dram.access_latency(write=write),
                      self.latency.cha_dram) + transfer
        self._install_llc(home, line)
        return AccessResult(latency, "DRAM", home)

    def lock_line(self, addr: int) -> bool:
        line = self.line_of(addr)
        return self.llc[self.slice_of(addr)].lock(line)

    def unlock_line(self, addr: int) -> bool:
        line = self.line_of(addr)
        return self.llc[self.slice_of(addr)].unlock(line)

    def line_locked(self, addr: int) -> bool:
        line = self.line_of(addr)
        return self.llc[self.slice_of(addr)].is_locked(line)

    def _gain_ownership(self, line: int, core_id: int) -> tuple:
        extra = 0
        retries = 0
        home = self.interconnect.slice_of_line(line)
        if self.llc[home].is_locked(line):
            self.reached["lock_retry"] += 1
            retries = 1
            extra += LOCK_RETRY_CYCLES
            self.snoop_filter.invalidate_for_store(line, core_id, locked=True)
        remote_sharer = False
        if self._sockets > 1:
            writer_socket = self.socket_of_core(core_id)
            remote_sharer = any(
                self.socket_of_core(sharer) != writer_socket
                for sharer in self.snoop_filter.other_sharers(line, core_id))
        outcome = self.snoop_filter.invalidate_for_store(line, core_id)
        if outcome["metadata_snoop"]:
            self.reached["metadata_snoop"] += 1
        if outcome["sharers"]:
            self.reached["store_invalidation"] += 1
            extra += self.latency.snoop_invalidate
            if remote_sharer:
                self.reached["remote_sharer_store"] += 1
                extra += self._link_round_trip
                self.interconnect.stats.link_crossings += 1
        return extra, retries

    def _private_holder(self, line: int,
                        exclude: Optional[int] = None) -> Optional[int]:
        for core in self.snoop_filter.sharers_of(line):
            if core == exclude:
                continue
            if self.l1[core].contains(line) or self.l2[core].contains(line):
                return core
        return None

    def _fill_private(self, cache: Cache, line: int, core_id: int,
                      dirty: bool) -> None:
        victim = cache.fill(line, dirty=dirty)
        if victim is not None and cache.name.startswith("L2"):
            self.reached["l2_victim"] += 1
            self.l1[core_id].invalidate(victim)
            if (not self.l1[core_id].contains(victim)
                    and not self.l2[core_id].contains(victim)):
                self.snoop_filter.record_eviction(victim, core_id)

    def _install_llc(self, slice_id: int, line: int) -> None:
        victim = self.llc[slice_id].fill(line)
        if victim is not None:
            self._back_invalidate(victim)

    def _back_invalidate(self, line: int) -> None:
        snoop = self.snoop_filter
        sharers = snoop.sharers_of(line)
        if sharers:
            self.reached["back_invalidation"] += 1
        for core in sharers:
            self.l1[core].invalidate(line)
            self.l2[core].invalidate(line)
            snoop.record_eviction(line, core)
