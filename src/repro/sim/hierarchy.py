"""The simulated memory hierarchy: per-core L1D/L2, NUCA LLC slices, DRAM.

Two access paths matter for the paper:

* :meth:`MemoryHierarchy.core_access` — the conventional path a load/store
  takes from a core: L1D → L2 → home LLC slice (ring transfer, NUCA) → DRAM,
  filling private caches on the way back (and thereby *polluting* them —
  Figure 12's effect).
* :meth:`MemoryHierarchy.cha_access` — HALO's near-cache path: the CHA
  reads its (or a peer's) LLC slice directly, never touching private caches.
  This is the 4.1×-faster-data-access property from Figure 10.

The hierarchy is inclusive: an LLC eviction back-invalidates private copies.

Public contract: every cache's sets, LRU order, line states and stats,
the snoop filter and DRAM's counters are a function of the access and
lock sequence alone.  ``core_accessor(c)(a, w)`` returns
``core_access(c, a, w)``'s latency, level and lock retries and leaves
the same state; only the metric pushes and the home slice are
``core_access``'s own.  :meth:`MemoryHierarchy.warm_llc` equals a loop of
``_install_llc`` over the region's lines in order, in that state, those
statistics and its back-invalidations; :meth:`~MemoryHierarchy.flush_region`
equals invalidating each line in every cache and dropping its sharers.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import reduce
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple)

import numpy as np

from ..obs import Observability
from .cache import DIRTY, LOCKED, Cache, CacheStats
from .coherence import SnoopFilter
from .interconnect import SWEEP_CHUNK_LINES, Interconnect
from .memory import AddressAllocator, Dram
from .tlb import Tlb
from .params import MachineParams

#: Levels an access can be satisfied from (metric label set).
ACCESS_LEVELS = ("L1", "L2", "LLC", "PRIV", "DRAM")

#: Extra cycles per retry when a store hits a HALO-locked line (§4.4).
LOCK_RETRY_CYCLES = 20

#: A core's access closure: ``(addr, write) -> (latency, level,
#: lock_retries)`` (:meth:`MemoryHierarchy.core_accessor`).
Access = Callable[[int, bool], Tuple[int, str, int]]


def _set_major_blocks(first: int, last: int,
                      num_sets: int) -> Iterator[np.ndarray]:
    """The lines from ``first`` to ``last`` (inclusive) set by set, as
    ``uint64`` arrays of about :data:`SWEEP_CHUNK_LINES` lines.

    A block covers a run of set indices (``num_sets`` is a power of two,
    so line ``l`` is in set ``l & (num_sets - 1)``) and lists each set's
    lines in line order, one set after the other.  A region spanning more
    than :data:`SWEEP_CHUNK_LINES` rows of ``num_sets`` lines splits each
    set over several consecutive blocks, in line order.  An empty range
    yields nothing.
    """
    count = last - first + 1
    if count < 1:
        return
    rows = -(-count // num_sets)
    columns = min(num_sets, count)
    width = max(1, SWEEP_CHUNK_LINES // rows)
    height = min(rows, SWEEP_CHUNK_LINES)
    stride = np.uint64(num_sets)
    for column in range(0, columns, width):
        offsets = np.arange(first + column,
                            first + min(column + width, columns),
                            dtype=np.uint64)
        for row in range(0, rows, height):
            row_starts = np.arange(row, min(row + height, rows),
                                   dtype=np.uint64) * stride
            # Column-major: one set's rows, then the next set's.
            lines = (offsets + row_starts[:, None]).ravel(order="F")
            if lines[-1] > last:
                lines = lines[lines <= last]
            yield lines


class AccessResult(NamedTuple):
    """Outcome of one memory access.

    A named tuple: one is allocated per simulated memory access, so cheap
    construction matters (see the replay fast path in :mod:`repro.sim.core`).
    """

    latency: int
    level: str            # "L1" | "L2" | "LLC" | "PRIV" | "DRAM"
    slice_id: int = -1
    lock_retries: int = 0


class MemoryHierarchy:
    """The full cache/memory system for one machine (1..N sockets).

    Private caches, LLC slices, and the snoop filter are indexed by
    *global* core/slice ids; the :class:`~repro.sim.params.Topology`
    decides which socket each id lives on.  Cross-socket transfers pay
    the inter-socket link penalty (see :meth:`_nuca_route` and the
    interconnect); with the default single-socket topology no penalty
    term is ever non-zero, so cycle counts are bit-identical to the
    pre-topology model.
    """

    def __init__(self, machine: MachineParams = None,
                 obs: Optional[Observability] = None) -> None:
        self.machine = machine or MachineParams()
        self.obs = obs if obs is not None else Observability()
        lat = self.machine.latency
        self.latency = lat
        self.topology = self.machine.topo
        self.l1 = [Cache(f"L1D.{i}", self.machine.l1d)
                   for i in range(self.machine.cores)]
        self.l2 = [Cache(f"L2.{i}", self.machine.l2)
                   for i in range(self.machine.cores)]
        self.llc = [Cache(f"LLC.{s}", self.machine.llc_slice)
                    for s in range(self.machine.llc_slices)]
        self.interconnect = Interconnect(self.machine.llc_slices, lat,
                                         self.topology)
        self.snoop_filter = SnoopFilter(self.machine.cores,
                                        self.machine.llc_slices)
        self.dram = Dram(lat.dram)
        self.tlbs = ([Tlb(self.machine.tlb) for _ in range(self.machine.cores)]
                     if self.machine.tlb is not None else None)
        self.allocator = AddressAllocator(self.machine.dram_bytes)
        self.line_bytes = self.machine.l1d.line_bytes
        # Socket geometry (== machine totals for one socket).
        self._sockets = self.topology.sockets
        self._cores_per_socket = self.topology.socket.cores
        self._slices_per_socket = self.topology.socket.llc_slices
        # Round-trip cycles added per inter-socket crossing (request out,
        # data back); zero with one socket so no access path changes.
        self._link_round_trip = (2 * self.topology.link_latency
                                 if self._sockets > 1 else 0)
        # Average local-fabric distance used to centre the NUCA latency
        # spread so the mean core->local-slice latency equals
        # ``latency.llc_hit``.  Per socket: the spread is a property of
        # one socket's ring, not of the whole machine.
        self._avg_hops = self._slices_per_socket // 4
        self._stops = self.machine.llc_slices
        self._llc_mask = self.llc[0].num_sets - 1
        #: core id -> its access closure (:meth:`core_accessor`).
        self._accessors: Dict[int, Access] = {}
        #: [accelerator slice][home slice] -> (transfer cycles, ring hops,
        #: link crossings) of a CHA access without a fault hook.
        route = self.interconnect.route
        self._cha_routes = [[route(accelerator, home)
                             for home in range(self._stops)]
                            for accelerator in range(self._stops)]
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Publish the hierarchy through the machine's metrics registry.

        Latency histograms and per-level counters are *push* metrics updated
        on every access (null no-ops when observability is off); the cache /
        DRAM / TLB / interconnect stats blocks are *pull* sources read only
        at snapshot time.
        """
        registry = self.obs.metrics
        self._m_core_cycles = registry.histogram("mem.core_access.cycles")
        self._m_cha_cycles = registry.histogram("mem.cha_access.cycles")
        self._m_core_level = {
            level: registry.counter(f"mem.core_access.level.{level}")
            for level in ACCESS_LEVELS}
        self._m_cha_level = {
            level: registry.counter(f"mem.cha_access.level.{level}")
            for level in ACCESS_LEVELS}
        self._m_lock_retries = registry.counter("mem.store_lock_retries")
        registry.register_source(
            "mem.l1d", lambda: self._level_stats(self.l1).as_dict())
        registry.register_source(
            "mem.l2", lambda: self._level_stats(self.l2).as_dict())
        registry.register_source(
            "mem.llc", lambda: self._level_stats(self.llc).as_dict())
        registry.register_source("mem.dram",
                                 lambda: self.dram.stats.as_dict())
        registry.register_source("mem.interconnect",
                                 lambda: self.interconnect.stats.as_dict())
        if self.tlbs is not None:
            registry.register_source(
                "mem.tlb",
                lambda: reduce(
                    lambda acc, tlb: {
                        "hits": acc["hits"] + tlb.stats.hits,
                        "misses": acc["misses"] + tlb.stats.misses},
                    self.tlbs, {"hits": 0, "misses": 0}))

    @staticmethod
    def _level_stats(caches: List[Cache]) -> CacheStats:
        """Roll one cache level's per-instance stats into an aggregate."""
        return reduce(CacheStats.merged, (c.stats for c in caches),
                      CacheStats())

    # -- helpers ---------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr // self.line_bytes

    def slice_of(self, addr: int) -> int:
        return self.interconnect.slice_of_line(self.line_of(addr))

    def socket_of_core(self, core_id: int) -> int:
        """Which socket a core lives on (always 0 on one socket)."""
        return self.topology.socket_of_core(core_id)

    def socket_of_slice(self, slice_id: int) -> int:
        """Which socket an LLC slice lives on (always 0 on one socket)."""
        return self.topology.socket_of_slice(slice_id)

    def core_stop(self, core_id: int) -> int:
        """Fabric stop of a core (core i shares a tile with slice i).

        Multi-socket: a core's stop is on *its own* socket's fabric —
        local core j sits at that socket's local slice ``j mod
        slices_per_socket``.  With one socket this reduces exactly to
        ``core_id % llc_slices``.
        """
        if self._sockets == 1:
            return core_id % self.machine.llc_slices
        socket = (core_id % self.machine.cores) // self._cores_per_socket
        local = (core_id % self._cores_per_socket) % self._slices_per_socket
        return socket * self._slices_per_socket + local

    def _nuca_route(self, stop: int, slice_id: int) -> Tuple[int, int]:
        """NUCA: core->slice latency centred on ``llc_hit``, and the link
        crossings it pays for, uncounted.

        A remote-socket home additionally pays the link round trip
        (request over, data back) — the term is zero on one socket, where
        the crossing count is too.
        """
        interconnect = self.interconnect
        hops = interconnect.hops(stop, slice_id)
        latency = (self.latency.llc_hit
                   + 2 * self.latency.hop * (hops - self._avg_hops))
        crossings = 0
        if self._link_round_trip:
            crossings = interconnect.link_crossings(stop, slice_id)
            latency += self._link_round_trip * crossings
        return max(latency, self.latency.l2_hit + 2), crossings

    def _llc_latency_from(self, stop: int, slice_id: int) -> int:
        """The NUCA latency one access from ``stop`` to ``slice_id`` pays,
        counting its link crossings (:meth:`_nuca_route`)."""
        latency, crossings = self._nuca_route(stop, slice_id)
        self.interconnect.stats.link_crossings += crossings
        return latency

    # -- conventional core path --------------------------------------------------
    def core_access(self, core_id: int, addr: int,
                    write: bool = False) -> AccessResult:
        """One load/store issued by ``core_id`` against byte address ``addr``:
        :meth:`core_accessor`'s walk, its metric pushes and the line's home
        slice."""
        latency, level, retries = self.core_accessor(core_id)(addr, write)
        self._m_core_cycles.observe(latency)
        self._m_core_level[level].inc()
        if retries:
            self._m_lock_retries.inc(retries)
        return AccessResult(
            latency, level,
            self.interconnect.slice_of_line(addr // self.line_bytes), retries)

    def observe_core_accesses(self, latency_counts: Dict[int, int],
                              level_counts: Dict[str, int],
                              lock_retries: int = 0) -> None:
        """Flush a batch of deferred :meth:`core_access` observations.

        Core pricing (:meth:`~repro.sim.core.CoreModel.execute_window`)
        accesses through :meth:`core_accessor` (skipping the per-access
        metric pushes) and hands the aggregated latencies/levels here, so
        the registry ends up in the same state as if every access had gone
        through the instrumented wrapper.
        """
        observe_many = self._m_core_cycles.observe_many
        for latency in sorted(latency_counts):
            observe_many(latency, latency_counts[latency])
        for level, count in level_counts.items():
            self._m_core_level[level].inc(count)
        if lock_retries:
            self._m_lock_retries.inc(lock_retries)

    def core_accessor(self, core_id: int) -> Access:
        """The access closure of ``core_id``: the one implementation of a
        core load or store.

        ``access(addr, write)`` returns ``(latency, level, lock_retries)``
        and skips the per-access metric pushes: :meth:`core_access` adds
        them, and core pricing flushes its deferred observations through
        :meth:`observe_core_accesses`.  Built on first use and kept, so
        every caller of one core shares one closure.
        """
        access = self._accessors.get(core_id)
        if access is None:
            access = self._accessors[core_id] = self._walk(core_id)
        return access

    def _walk(self, core_id: int) -> Access:
        """Build ``core_id``'s access closure.

        One access charges the TLB (when the machine has one); a store
        then gains ownership: a HALO-locked home copy costs a snoop miss
        and one retry (the lock holder, an accelerator query, releases
        before the retry in the synchronous replay model), other sharers
        lose their snoop-filter bits for one invalidation round trip (a
        link round trip more when one sits on another socket), and a
        metadata-cache copy is snooped out.  The walk then probes L1D, L2
        and the home LLC slice; below the LLC it checks the peers'
        private caches (dirty sharing) and goes to DRAM, installing the
        line into the LLC, whose victim is back-invalidated from every
        private cache the snoop filter lists, before filling L2 (its
        victim leaves this core's L1D and sharer bit), the snoop filter
        and L1D.  The caches' sets, the snoop filter's maps, and the NUCA
        latency and link crossings from this core's stop to every slice
        are bound once, here.
        """
        l1, l2 = self.l1[core_id], self.l2[core_id]
        l1_sets, l1_stats = l1._sets, l1.stats
        l1_mask, l1_assoc = l1.num_sets - 1, l1.assoc
        l2_sets, l2_stats = l2._sets, l2.stats
        l2_mask, l2_assoc = l2.num_sets - 1, l2.assoc
        llc = self.llc
        llc_sets = [cache._sets for cache in llc]
        llc_stats = [cache.stats for cache in llc]
        llc_mask = llc[0].num_sets - 1
        snoop = self.snoop_filter
        sharers = snoop._sharers
        metadata_holders = snoop._metadata_holder
        coherence = snoop.stats
        link_stats = self.interconnect.stats
        slice_of_line = self.interconnect.slice_of_line
        dram_access = self.dram.access_latency
        private_holder = self._private_holder
        back_invalidate = self._back_invalidate
        tlb_access = (self.tlbs[core_id].access
                      if self.tlbs is not None else None)
        stop = self.core_stop(core_id)
        routes = [self._nuca_route(stop, slice_id)
                  for slice_id in range(len(llc))]
        nuca = [latency for latency, _ in routes]
        crossings = [crossed for _, crossed in routes]
        link_round_trip = self._link_round_trip
        many_sockets = self._sockets > 1
        socket_of_core = self.topology.socket_of_core
        writer_socket = socket_of_core(core_id)
        latency = self.latency
        l1_hit, l2_hit = latency.l1_hit, latency.l2_hit
        snoop_invalidate = latency.snoop_invalidate
        line_bytes = self.line_bytes
        new_set = OrderedDict
        # One shared tuple for every plain L1 hit — the hot return value
        # is a constant, so allocating it per access would be pure churn.
        l1_result = (l1_hit, "L1", 0)

        def access(addr: int, write: bool) -> Tuple[int, str, int]:
            line = addr // line_bytes
            extra = 0 if tlb_access is None else tlb_access(addr)
            retries = 0
            if write:
                home = slice_of_line(line)
                home_set = llc_sets[home].get(line & llc_mask)
                if home_set is not None and home_set.get(line, 0) & LOCKED:
                    retries = 1
                    extra += LOCK_RETRY_CYCLES
                    coherence.snoop_misses += 1
                holders = sharers.get(line)
                if holders is None:
                    sharers[line] = {core_id}
                elif len(holders) > 1 or core_id not in holders:
                    others = len(holders) - (core_id in holders)
                    coherence.invalidation_rounds += 1
                    coherence.lines_invalidated += others
                    extra += snoop_invalidate
                    if many_sockets and any(
                            socket_of_core(sharer) != writer_socket
                            for sharer in holders if sharer != core_id):
                        extra += link_round_trip
                        link_stats.link_crossings += 1
                    sharers[line] = {core_id}
                if line in metadata_holders:
                    # Read-for-ownership also invalidates the metadata-
                    # cache copy.
                    coherence.metadata_snoops += 1
                    del metadata_holders[line]

            index = line & l1_mask
            l1_set = l1_sets.get(index)
            if l1_set is None:
                l1_set = l1_sets[index] = new_set()
            else:
                state = l1_set.get(line)
                if state is not None:  # 0 is a resident clean line
                    l1_set.move_to_end(line)
                    if write:
                        l1_set[line] = state | DIRTY
                    l1_stats.hits += 1
                    if extra or retries:
                        return l1_hit + extra, "L1", retries
                    return l1_result
            l1_stats.misses += 1

            index = line & l2_mask
            l2_set = l2_sets.get(index)
            if l2_set is None:
                l2_set = l2_sets[index] = new_set()
                state = None
            else:
                state = l2_set.get(line)
            if state is not None:
                l2_set.move_to_end(line)
                if write:
                    l2_set[line] = state | DIRTY
                l2_stats.hits += 1
                result = (l2_hit + extra, "L2", retries)
            else:
                l2_stats.misses += 1
                if not write:
                    home = slice_of_line(line)
                home_sets = llc_sets[home]
                index = line & llc_mask
                home_set = home_sets.get(index)
                if home_set is None:
                    home_set = home_sets[index] = new_set()
                    state = None
                else:
                    state = home_set.get(line)
                crossed = crossings[home]
                if crossed:
                    link_stats.link_crossings += crossed
                if state is not None:
                    home_set.move_to_end(line)
                    if write:
                        home_set[line] = state | DIRTY
                    llc_stats[home].hits += 1
                    result = (nuca[home] + extra, "LLC", retries)
                else:
                    llc_stats[home].misses += 1
                    if private_holder(line, core_id) is not None:
                        result = (nuca[home] + snoop_invalidate + extra,
                                  "PRIV", retries)
                    else:
                        # The memory controller sits behind the line's
                        # home slice: a remote home pays the link round
                        # trip on top of DRAM (zero on one socket).
                        result = (dram_access(write)
                                  + link_round_trip * crossed + extra,
                                  "DRAM", retries)
                    victim = llc[home]._install(home_set, line)
                    if victim is not None and victim in sharers:
                        back_invalidate(victim)

                # L2 fill, clean, after the LLC install's back-invalidation.
                if len(l2_set) >= l2_assoc:
                    victim, state = l2_set.popitem(last=False)
                    if state & LOCKED:
                        victim, state = l2._evict_pinned(l2_set, victim,
                                                         state)
                    if state & DIRTY:
                        l2_stats.writebacks += 1
                    l2_stats.evictions += 1
                    # The victim leaves L1D too (keeping presence
                    # consistent), and with it this core's sharer bit.
                    victim_set = l1_sets.get(victim & l1_mask)
                    state = (None if victim_set is None
                             else victim_set.get(victim))
                    if state is not None and not state & LOCKED:
                        del victim_set[victim]
                        l1_stats.invalidations += 1
                        state = None
                    if state is None:
                        holders = sharers.get(victim)
                        if holders is not None:
                            holders.discard(core_id)
                            if not holders:
                                del sharers[victim]
                l2_set[line] = 0
                holders = sharers.get(line)
                if holders is None:
                    sharers[line] = {core_id}
                else:
                    holders.add(core_id)

            # L1D fill.
            if len(l1_set) >= l1_assoc:
                victim, state = l1_set.popitem(last=False)
                if state & LOCKED:
                    victim, state = l1._evict_pinned(l1_set, victim, state)
                if state & DIRTY:
                    l1_stats.writebacks += 1
                l1_stats.evictions += 1
            l1_set[line] = DIRTY if write else 0
            return result
        return access

    # -- HALO near-cache path ------------------------------------------------------
    def cha_access(self, accelerator_slice: int, addr: int,
                   write: bool = False) -> AccessResult:
        """A CHA-side access from the accelerator at ``accelerator_slice``.

        Never fills private caches (no pollution); DRAM fills go into the
        line's home LLC slice only.
        """
        result = self._cha_access(accelerator_slice, addr, write)
        self._m_cha_cycles.observe(result.latency)
        self._m_cha_level[result.level].inc()
        return result

    def _cha_access(self, accelerator_slice: int, addr: int,
                    write: bool = False) -> AccessResult:
        line = addr // self.line_bytes
        interconnect = self.interconnect
        home = interconnect.slice_of_line(line)
        if interconnect.fault_hook is None:
            transfer, hops, crossings = self._cha_routes[
                accelerator_slice % self._stops][home]
            stats = interconnect.stats
            stats.messages += 1
            stats.total_hops += hops
            if crossings:
                stats.link_crossings += crossings
        else:
            transfer = interconnect.transfer_latency(accelerator_slice, home)
        llc = self.llc[home]
        sets = llc._sets
        index = line & self._llc_mask
        cache_set = sets.get(index)
        if cache_set is None:
            cache_set = sets[index] = OrderedDict()
            state = None
        else:
            state = cache_set.get(line)
        if state is not None:
            cache_set.move_to_end(line)
            if write:
                cache_set[line] = state | DIRTY
            llc.stats.hits += 1
            return AccessResult(self.latency.cha_llc_hit + transfer,
                                "LLC", home)
        llc.stats.misses += 1
        if self._private_holder(line) is not None:
            # Pull the line from a private cache back into LLC.
            result = AccessResult(
                self.latency.cha_llc_hit + transfer
                + self.latency.snoop_invalidate // 2, "PRIV", home)
        else:
            result = AccessResult(
                min(self.dram.access_latency(write=write),
                    self.latency.cha_dram) + transfer, "DRAM", home)
        victim = llc._install(cache_set, line)
        if victim is not None and victim in self.snoop_filter._sharers:
            self._back_invalidate(victim)
        return result

    # -- HALO lock bits (delegate to the home slice) -------------------------------
    def lock_line(self, addr: int) -> bool:
        """Set the HALO lock bit if the line is LLC-resident.

        Absent lines cannot be locked — the accelerator locks them after
        its (charged) data fetch brings them in.
        """
        line = addr // self.line_bytes
        return self.llc[self.interconnect.slice_of_line(line)].lock(line)

    def unlock_line(self, addr: int) -> bool:
        line = addr // self.line_bytes
        return self.llc[self.interconnect.slice_of_line(line)].unlock(line)

    def line_locked(self, addr: int) -> bool:
        line = addr // self.line_bytes
        return self.llc[self.interconnect.slice_of_line(line)].is_locked(line)

    # -- internals -------------------------------------------------------------
    def _private_holder(self, line: int,
                        exclude: Optional[int] = None) -> Optional[int]:
        """A core other than ``exclude`` that the snoop filter lists for
        ``line`` and whose L1D or L2 still holds it, or None.  Reads the
        live sharer set: the scan changes nothing."""
        holders = self.snoop_filter._sharers.get(line)
        if holders is not None:
            l1, l2 = self.l1, self.l2
            for core in holders:
                if core != exclude and (l1[core].contains(line)
                                        or l2[core].contains(line)):
                    return core
        return None

    def _install_llc(self, slice_id: int, line: int) -> None:
        victim = self.llc[slice_id].fill(line)
        if victim is not None:
            self._back_invalidate(victim)

    def _back_invalidate(self, line: int) -> None:
        """Inclusive LLC: drop every private copy of an evicted line that
        the snoop filter lists, and its sharers (the entry goes at once)."""
        holders = self.snoop_filter._sharers.pop(line, None)
        if holders is not None:
            for core in holders:
                self.l1[core].invalidate(line)
                self.l2[core].invalidate(line)

    # -- warm-up & utility -----------------------------------------------------
    def warm_llc(self, base: int, size: int) -> int:
        """Pre-install a region's lines into the LLC; returns line count.

        The same as :meth:`_install_llc` of each of the region's lines in
        line order, in every cache's sets, LRU order, states and stats and
        in the snoop filter.  The region is installed set by set
        (:func:`_set_major_blocks`): each block's lines are hashed to
        slices in one pass and handed to each slice's
        :meth:`Cache.fill_many`, and every victim the snoop filter lists
        is back-invalidated.  The order is exact because a line lives in
        one set of one slice, the region's lines are distinct, and fills
        into one set never touch another set: each set sees its fills in
        line order, and back-invalidating a victim touches only that
        line's entries in L1, L2 and the snoop filter.  Filling set by
        set also keeps each set's dict hot while its lines go in, which
        line order does not, and hands ``fill_many`` each set's lines as
        one run, so a region larger than the LLC installs only the lines
        that survive it (the skipped ones come back as victims).
        """
        first = self.line_of(base)
        last = self.line_of(base + size - 1)
        llc = self.llc
        stops = len(llc)
        slice_type = np.min_scalar_type(stops - 1)
        slices_of = self.interconnect._slices_of
        sharers = self.snoop_filter._sharers
        back_invalidate = self._back_invalidate
        for lines in _set_major_blocks(first, last, llc[0].num_sets):
            slice_ids = slices_of(lines).astype(slice_type)
            # Grouped by slice; within a slice, set by set in line order.
            lines = lines[np.argsort(slice_ids, kind="stable")]
            end = 0
            for slice_id, filled in enumerate(
                    np.bincount(slice_ids, minlength=stops).tolist()):
                if filled:
                    start, end = end, end + filled
                    victims = llc[slice_id].fill_many(lines[start:end])
                    if sharers:
                        for victim in victims:
                            if victim in sharers:
                                back_invalidate(victim)
        return last - first + 1

    def flush_private(self, core_id: int) -> None:
        self.l1[core_id].flush()
        self.l2[core_id].flush()

    def flush_region(self, base: int, size: int) -> None:
        """Evict one address range from every cache level.

        Models a working set displaced to DRAM (e.g. a hash table evicted
        by other tenants) without disturbing unrelated lines such as the
        caller's key operand.  The same as invalidating each line in every
        private cache and its LLC slice and recording its eviction from
        every core, one structure at a time: every sharer the snoop filter
        holds is a core.
        """
        first = self.line_of(base)
        last = self.line_of(base + size - 1)
        for core in range(self.machine.cores):
            self.l1[core].invalidate_range(first, last)
            self.l2[core].invalidate_range(first, last)
        self.snoop_filter.drop_lines(first, last)
        llc = self.llc
        for line, slice_id in enumerate(
                self.interconnect.slices_of_lines(first, last), first):
            llc[slice_id].invalidate(line)

    def reset_stats(self) -> None:
        for cache in self.l1 + self.l2 + self.llc:
            cache.stats.reset()
        self.dram.stats.reads = self.dram.stats.writes = 0

    def llc_resident_fraction(self, base: int, size: int) -> float:
        """Fraction of a region's lines currently resident in the LLC."""
        first = self.line_of(base)
        last = self.line_of(base + size - 1)
        total = last - first + 1
        llc = self.llc
        resident = sum(1 for line, slice_id in enumerate(
                           self.interconnect.slices_of_lines(first, last),
                           first)
                       if llc[slice_id].contains(line))
        return resident / total
