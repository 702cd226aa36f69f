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
"""

from __future__ import annotations

from collections import OrderedDict
from functools import reduce
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..obs import Observability
from .cache import Cache, CacheStats
from .coherence import SnoopFilter
from .interconnect import Interconnect
from .memory import AddressAllocator, Dram
from .tlb import Tlb
from .params import MachineParams

#: Levels an access can be satisfied from (metric label set).
ACCESS_LEVELS = ("L1", "L2", "LLC", "PRIV", "DRAM")

#: Extra cycles per retry when a store hits a HALO-locked line (§4.4).
LOCK_RETRY_CYCLES = 20


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
    the inter-socket link penalty (see :meth:`_llc_latency_from` and the
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

    def _llc_latency_from(self, stop: int, slice_id: int) -> int:
        """NUCA: core->slice latency centred on ``llc_hit``.

        A remote-socket home additionally pays the link round trip
        (request over, data back) — the term is zero on one socket.
        """
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

    # -- conventional core path --------------------------------------------------
    def core_access(self, core_id: int, addr: int,
                    write: bool = False) -> AccessResult:
        """One load/store issued by ``core_id`` against byte address ``addr``."""
        result = self._core_access(core_id, addr, write)
        self._m_core_cycles.observe(result.latency)
        self._m_core_level[result.level].inc()
        if result.lock_retries:
            self._m_lock_retries.inc(result.lock_retries)
        return result

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

    def core_accessor(self, core_id: int
                      ) -> Callable[[int, bool], Tuple[int, str, int]]:
        """A pre-bound access closure for core pricing.

        State transitions are exactly :meth:`_core_access` — the L1 read
        probe is inlined against the cache internals (the overwhelmingly
        common case in warm lookup streams) and everything else falls
        through to the shared slow path — but the closure returns a plain
        ``(latency, level, lock_retries)`` tuple and skips the per-access
        metric pushes; callers flush their deferred observations through
        :meth:`observe_core_accesses`.
        """
        full = self._core_access
        if self.tlbs is not None:
            # TLB translation charges per *byte address*, which the
            # inlined line-granular probe below cannot reproduce — take
            # the full path.
            def access(addr: int, write: bool) -> Tuple[int, str, int]:
                result = full(core_id, addr, write)
                return result[0], result[1], result[3]
            return access
        l1 = self.l1[core_id]
        sets = l1._sets
        sets_get = sets.get
        mask = l1.num_sets - 1
        stats = l1.stats
        line_bytes = self.line_bytes
        l1_hit = self.latency.l1_hit
        fill = self._core_access_fill
        ordered_dict = OrderedDict
        # One shared tuple for every L1 hit — the hot return value is a
        # constant, so allocating it per access would be pure churn.
        hit_result = (l1_hit, "L1", 0)

        def access(addr: int, write: bool) -> Tuple[int, str, int]:
            if write:
                # Stores need ownership/lock-retry modelling: full path.
                result = full(core_id, addr, write)
                return result[0], result[1], result[3]
            line = addr // line_bytes
            index = line & mask
            cache_set = sets_get(index)
            if cache_set is None:
                # Same state effect as Cache._set_for on a cold set.
                sets[index] = ordered_dict()
            elif cache_set.get(line) is not None:  # 0 is a resident line
                cache_set.move_to_end(line)
                stats.hits += 1
                return hit_result
            stats.misses += 1
            result = fill(core_id, line, False, 0, 0)
            return result[0], result[1], result[3]
        return access

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
        """The L1-missed continuation of :meth:`_core_access`: L2 → home
        LLC slice → peer private caches → DRAM, filling private caches on
        the way back.  Split out so :meth:`core_accessor` can inline the
        L1 probe and share everything below it unchanged."""
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
            latency = self._llc_latency_from(stop, slice_id) + extra
            self._fill_private(l2, line, core_id, dirty=False)
            self._fill_private(l1, line, core_id, dirty=write)
            self.snoop_filter.record_fill(line, core_id)
            return AccessResult(latency, "LLC", slice_id, retries)

        # Check other cores' private caches (dirty sharing): costlier than LLC.
        holder = self._private_holder(line, exclude=core_id)
        if holder is not None:
            latency = (self._llc_latency_from(stop, slice_id)
                       + self.latency.snoop_invalidate + extra)
            self._install_llc(slice_id, line)
            self._fill_private(l2, line, core_id, dirty=False)
            self._fill_private(l1, line, core_id, dirty=write)
            self.snoop_filter.record_fill(line, core_id)
            return AccessResult(latency, "PRIV", slice_id, retries)

        # DRAM.  The memory controller sits behind the line's *home* slice,
        # so a remote-socket home pays the link round trip on top of the
        # DRAM latency (zero on one socket).
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
        line = self.line_of(addr)
        home = self.slice_of(addr)
        transfer = self.interconnect.transfer_latency(accelerator_slice, home)
        llc = self.llc[home]
        if llc.lookup(line, write=write):
            return AccessResult(self.latency.cha_llc_hit + transfer,
                                "LLC", home)
        holder = self._private_holder(line)
        if holder is not None:
            # Pull the line from a private cache back into LLC.
            latency = (self.latency.cha_llc_hit + transfer
                       + self.latency.snoop_invalidate // 2)
            self._install_llc(home, line)
            return AccessResult(latency, "PRIV", home)
        latency = min(self.dram.access_latency(write=write),
                      self.latency.cha_dram) + transfer
        self._install_llc(home, line)
        return AccessResult(latency, "DRAM", home)

    # -- HALO lock bits (delegate to the home slice) -------------------------------
    def lock_line(self, addr: int) -> bool:
        """Set the HALO lock bit if the line is LLC-resident.

        Absent lines cannot be locked — the accelerator locks them after
        its (charged) data fetch brings them in.
        """
        line = self.line_of(addr)
        return self.llc[self.slice_of(addr)].lock(line)

    def unlock_line(self, addr: int) -> bool:
        line = self.line_of(addr)
        return self.llc[self.slice_of(addr)].unlock(line)

    def line_locked(self, addr: int) -> bool:
        line = self.line_of(addr)
        return self.llc[self.slice_of(addr)].is_locked(line)

    # -- internals -------------------------------------------------------------
    def _gain_ownership(self, line: int, core_id: int) -> tuple:
        """Cost of acquiring exclusive ownership for a store."""
        extra = 0
        retries = 0
        home = self.interconnect.slice_of_line(line)
        if self.llc[home].is_locked(line):
            # The lock holder (an accelerator query) completes quickly; in
            # the synchronous replay model the other agent releases the
            # lock before the retry, so the store pays one retry and goes
            # ahead, which models forward progress.
            retries = 1
            extra += LOCK_RETRY_CYCLES
            self.snoop_filter.invalidate_for_store(line, core_id, locked=True)
        remote_sharer = False
        if self._sockets > 1:
            # Snoops travel in parallel (one round trip), but if any
            # sharer sits on another socket the round trip spans the
            # link.  Checked before the invalidation consumes the set.
            writer_socket = self.socket_of_core(core_id)
            remote_sharer = any(
                self.socket_of_core(sharer) != writer_socket
                for sharer in self.snoop_filter.other_sharers(line, core_id))
        outcome = self.snoop_filter.invalidate_for_store(line, core_id)
        if outcome["sharers"]:
            extra += self.latency.snoop_invalidate
            if remote_sharer:
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
            # L2 eviction: the victim may also leave L1 (non-inclusive L1/L2
            # on Skylake, but keeping presence consistent is enough here).
            self.l1[core_id].invalidate(victim)
            if (not self.l1[core_id].contains(victim)
                    and not self.l2[core_id].contains(victim)):
                self.snoop_filter.record_eviction(victim, core_id)

    def _install_llc(self, slice_id: int, line: int) -> None:
        victim = self.llc[slice_id].fill(line)
        if victim is not None:
            # Inclusive LLC: back-invalidate every private copy.
            for core in self.snoop_filter.sharers_of(victim):
                self.l1[core].invalidate(victim)
                self.l2[core].invalidate(victim)
                self.snoop_filter.record_eviction(victim, core)

    # -- warm-up & utility -----------------------------------------------------
    def warm_llc(self, base: int, size: int) -> int:
        """Pre-install a region's lines into the LLC; returns line count."""
        first = self.line_of(base)
        last = self.line_of(base + size - 1)
        for line in range(first, last + 1):
            self._install_llc(self.interconnect.slice_of_line(line), line)
        return last - first + 1

    def flush_private(self, core_id: int) -> None:
        self.l1[core_id].flush()
        self.l2[core_id].flush()

    def flush_region(self, base: int, size: int) -> None:
        """Evict one address range from every cache level.

        Models a working set displaced to DRAM (e.g. a hash table evicted
        by other tenants) without disturbing unrelated lines such as the
        caller's key operand.
        """
        first = self.line_of(base)
        last = self.line_of(base + size - 1)
        for line in range(first, last + 1):
            for core in range(self.machine.cores):
                self.l1[core].invalidate(line)
                self.l2[core].invalidate(line)
                self.snoop_filter.record_eviction(line, core)
            self.llc[self.interconnect.slice_of_line(line)].invalidate(line)

    def reset_stats(self) -> None:
        for cache in self.l1 + self.l2 + self.llc:
            cache.stats.reset()
        self.dram.stats.reads = self.dram.stats.writes = 0

    def llc_resident_fraction(self, base: int, size: int) -> float:
        """Fraction of a region's lines currently resident in the LLC."""
        first = self.line_of(base)
        last = self.line_of(base + size - 1)
        total = last - first + 1
        resident = sum(
            1 for line in range(first, last + 1)
            if self.llc[self.interconnect.slice_of_line(line)].contains(line))
        return resident / total
