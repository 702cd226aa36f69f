"""The inlined memory walk against the frozen call-by-call paths.

``MemoryHierarchy.core_accessor`` is the one implementation of a core
load or store, and ``core_access`` wraps it; ``_cha_access``, ``lock_line``
and ``unlock_line`` find a line's home once.  Each is held here to the
paths of ``tests/sim/reference_hierarchy.py``: random loads, stores, CHA
reads and writes, lock bits, metadata-cache copies, LLC warm-ups and
flushes run on a one-socket machine, a two-socket machine and a TLB
machine, with an interconnect and a DRAM fault hook installed part-way,
and after every step both models must return the same result and hold
the same state.  The seeded sequences also count the levels and branches
they reached and require all of them, so a sequence that never leaves L1
cannot pass.  ``test_window_pricing.py`` prices through ``core_access``,
so it checks the pricing arithmetic; this suite checks the walk.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from repro.sim import MemoryHierarchy, SKYLAKE_SP_16C, TINY_MACHINE
from repro.sim.hierarchy import LOCK_RETRY_CYCLES
from repro.sim.interconnect import mix64
from repro.sim.tlb import TlbParams

from .reference_hierarchy import ReferenceHierarchy

MACHINES = {
    "one-socket": TINY_MACHINE,
    "two-socket": TINY_MACHINE.scale_out(2),
    "tlb": TINY_MACHINE.scaled(tlb=TlbParams(entries=4, page_bytes=4096,
                                             walk_cycles=35)),
}

#: Branches every machine's seeded sequences must reach; the two-socket
#: machine must also reach ``MANY_SOCKET_BRANCHES``.
BRANCHES = {"L1", "L2", "LLC", "PRIV", "DRAM", "cha.LLC", "cha.PRIV",
            "cha.DRAM", "lock_retry", "locked_lru_victim",
            "store_invalidation", "back_invalidation", "l2_victim",
            "metadata_snoop"}
MANY_SOCKET_BRANCHES = {"remote_sharer_store", "llc_hit_link_crossing"}

#: Operation kinds by weight: mostly core accesses, and region warm-ups
#: and flushes rare enough that private caches refill between them.
#: ``peer`` is the sequence that leaves a listed peer holding a line the
#: LLC dropped (``_peer_chain``), which single operations almost never
#: build.
WEIGHTS = {"load": 120, "store": 36, "cha": 18, "lock": 18, "unlock": 6,
           "metadata": 2, "peer": 3, "warm": 1, "flush_private": 1,
           "flush_region": 1}
KINDS = tuple(kind for kind, weight in WEIGHTS.items()
              for _ in range(weight))

#: Line offsets of the two columns of conflicting lines (see ``_line``).
COLUMNS = (5, 70)


class RecordingHook:
    """A deterministic fault hook that logs every call."""

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus
        self.calls = []

    def __call__(self, *args) -> int:
        self.calls.append(args)
        return (7 * len(self.calls) + sum(map(int, args))) % self.modulus


def _line(machine, spread: int, value: int) -> int:
    """A line of the shared working set (three ``spread`` draws in four:
    three lines per L1D set, against four ways, and one per L2 set, so
    the conflict columns' L1D sets push some of them out to the L2), or
    one of up to 48 lines that share one LLC set index, and so
    one L2 and L1D set, in one of two columns: about 24 per slice set
    against 8 ways, so the walk evicts, back-invalidates and meets locked
    LRU lines."""
    if spread:
        return value % 48
    stride = machine.llc_slice.num_sets
    return COLUMNS[value % 2] + (value // 2 % 48) * stride


def _peer_chain(machine, core, line, via_cha):
    """``core`` reads ``line``; another core's store drops ``core`` from
    the sharers (its copy stays); CHA reads of more lines of the line's
    LLC set than it has ways evict it and back-invalidate the writer;
    ``core``'s store lists it again; then the writer or a CHA reads the
    line, which only ``core``'s private caches hold."""
    writer = (core + 1) % machine.cores
    stride, slices = machine.llc_slice.num_sets, machine.llc_slices
    home = mix64(line) % slices
    column = [other for other in (line % stride + k * stride
                                  for k in range(1, 64 * slices))
              if other != line and mix64(other) % slices == home]
    addr = line * 64
    ops = [("load", core, addr, True), ("store", writer, addr, via_cha)]
    ops += [("cha", home, other * 64, False)
            for other in column[:machine.llc_slice.associativity + 4]]
    ops.append(("store", core, addr, not via_cha))
    ops.append(("cha", home, addr, False) if via_cha
               else ("load", writer, addr, True))
    return ops


def _ops(machine, kind, core, spread, value, flag, size):
    """The operations of one drawn kind, from drawn raw values."""
    line = _line(machine, spread, value)
    addr = line * 64 + (0, 8, 63)[value % 3]
    slice_id = value % machine.llc_slices
    if kind in ("load", "store"):
        return [(kind, core, addr, flag)]
    if kind == "cha":
        return [("cha", slice_id, addr, flag)]
    if kind in ("lock", "unlock"):
        return [(kind, addr)]
    if kind == "metadata":
        return [("metadata", addr, slice_id)]
    if kind == "flush_private":
        return [("flush_private", core)]
    if kind == "peer":
        return _peer_chain(machine, core, line, flag)
    return [(kind, addr, size * 64)]


def op_strategy(machine):
    return st.builds(
        lambda *raw: _ops(machine, *raw),
        st.sampled_from(KINDS), st.integers(0, machine.cores - 1),
        st.integers(0, 3), st.integers(0, 4095), st.booleans(),
        st.integers(1, 48))


def seeded_ops(machine, seed: int, count: int):
    rng = random.Random(seed)
    ops = []
    while len(ops) < count:
        ops += _ops(machine, rng.choice(KINDS), rng.randrange(machine.cores),
                    rng.randrange(4), rng.randrange(4096),
                    rng.random() < 0.5, rng.randint(1, 48))
    return ops


def apply(hierarchy, op, live: bool):
    """Run one operation; a live core access with its flag set goes
    through ``core_accessor`` and hands its metric to the deferred flush,
    as core pricing does."""
    kind = op[0]
    if kind in ("load", "store"):
        _, core, addr, via_accessor = op
        write = kind == "store"
        if live and via_accessor:
            latency, level, retries = hierarchy.core_accessor(core)(addr,
                                                                    write)
            hierarchy.observe_core_accesses({latency: 1}, {level: 1},
                                            retries)
            return latency, level, retries, None
        result = hierarchy.core_access(core, addr, write=write)
        return result.latency, result.level, result.lock_retries, \
            result.slice_id
    if kind == "cha":
        return tuple(hierarchy.cha_access(op[1], op[2], write=op[3]))
    if kind == "lock":
        return hierarchy.lock_line(op[1]), hierarchy.line_locked(op[1])
    if kind == "unlock":
        return hierarchy.unlock_line(op[1]), hierarchy.line_locked(op[1])
    if kind == "metadata":
        hierarchy.snoop_filter.set_metadata_holder(
            hierarchy.line_of(op[1]), op[2])
        return None
    if kind == "warm":
        return hierarchy.warm_llc(op[1], op[2])
    if kind == "flush_private":
        return hierarchy.flush_private(op[1])
    return hierarchy.flush_region(op[1], op[2])


def state_of(hierarchy):
    """Everything an access may change, in order where order is state."""
    snoop = hierarchy.snoop_filter
    return {
        "caches": [(cache.name,
                    [(index, list(cache_set.items()))
                     for index, cache_set in cache._sets.items()],
                    cache.stats, cache.locked_lines)
                   for cache in hierarchy.l1 + hierarchy.l2 + hierarchy.llc],
        "sharers": [(line, sorted(cores))
                    for line, cores in snoop._sharers.items()],
        "metadata": list(snoop._metadata_holder.items()),
        "coherence": snoop.stats,
        "dram": (hierarchy.dram.stats, hierarchy.dram._outstanding),
        "interconnect": hierarchy.interconnect.stats,
        "tlb": None if hierarchy.tlbs is None else [
            (list(tlb._entries), tlb.stats) for tlb in hierarchy.tlbs],
    }


def install_hooks(hierarchy) -> None:
    hierarchy.interconnect.fault_hook = RecordingHook(5)
    hierarchy.dram.fault_hook = RecordingHook(13)


def hook_calls(hierarchy):
    return [getattr(hook, "calls", None)
            for hook in (hierarchy.interconnect.fault_hook,
                         hierarchy.dram.fault_hook)]


def run_pair(machine, ops, hooks_at: int):
    """Run ``ops`` on a live and a reference hierarchy, comparing result
    and state after every step; returns the reference."""
    live = MemoryHierarchy(machine)
    reference = ReferenceHierarchy(machine)
    for step, op in enumerate(ops):
        if step == hooks_at:
            install_hooks(live)
            install_hooks(reference)
        got = apply(live, op, live=True)
        want = apply(reference, op, live=False)
        if op[0] in ("load", "store") and got[3] is None:
            want = want[:3] + (None,)
        assert got == want, (step, op)
        assert state_of(live) == state_of(reference), (step, op)
        assert hook_calls(live) == hook_calls(reference), (step, op)
    assert live.obs.metrics.snapshot() == reference.obs.metrics.snapshot()
    return reference


@pytest.mark.parametrize("name", sorted(MACHINES))
@given(data=st.data())
def test_walk_matches_reference(name, data):
    machine = MACHINES[name]
    ops = [op for chain in data.draw(st.lists(op_strategy(machine),
                                              min_size=1, max_size=60))
           for op in chain]
    run_pair(machine, ops, data.draw(st.integers(0, len(ops))))


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_seeded_sequences_reach_every_branch(name):
    machine = MACHINES[name]
    reached = set()
    for seed in range(3):
        ops = seeded_ops(machine, seed, 1500)
        reference = run_pair(machine, ops, hooks_at=750)
        reached |= {branch for branch, count in reference.reached.items()
                    if count}
        if reference.tlbs is not None:
            assert all(tlb.stats.hits and tlb.stats.misses
                       for tlb in reference.tlbs)
        assert all(hook_calls(reference)), "a fault hook was never called"
    required = BRANCHES | (MANY_SOCKET_BRANCHES
                           if machine.topo.sockets > 1 else set())
    assert required <= reached, sorted(required - reached)


def _column(hierarchy, slice_id: int, set_index: int, count: int):
    """``count`` lines homed on ``slice_id`` with LLC set ``set_index``."""
    slice_of_line = hierarchy.interconnect.slice_of_line
    lines = (line for line in itertools.count(set_index,
                                              hierarchy.llc[0].num_sets)
             if slice_of_line(line) == slice_id)
    return list(itertools.islice(lines, count))


def _both(machine):
    return MemoryHierarchy(machine), ReferenceHierarchy(machine)


def test_llc_install_back_invalidates_before_private_fills():
    """An LLC miss installs into the LLC first: the victim's
    back-invalidation frees a way of this core's L2 set, so the L2 fill
    evicts nothing."""
    for hierarchy in _both(TINY_MACHINE):
        home = _column(hierarchy, 0, 9, 9)       # LLC set 9 of slice 0
        victim, fillers, line = home[0], home[1:8], home[8]
        # Same L2 and L1D sets as ``victim``, another LLC set.
        others = _column(hierarchy, 1, 9 + 64, 3)
        hierarchy.core_access(0, victim * 64)
        for filler in fillers:
            hierarchy.core_access(1, filler * 64)
        for other in others:
            hierarchy.core_access(0, other * 64)
        l2 = hierarchy.l2[0]
        assert list(l2._sets[9]) == [victim] + others
        evictions, invalidations = l2.stats.evictions, l2.stats.invalidations
        assert hierarchy.core_access(0, line * 64).level == "DRAM"
        assert list(l2._sets[9]) == others + [line]
        assert l2.stats.evictions == evictions
        assert l2.stats.invalidations == invalidations + 1
    ops = [("load", 0, victim * 64, True)]
    ops += [("load", 1, filler * 64, False) for filler in fillers]
    ops += [("load", 0, other * 64, True) for other in others]
    ops += [("load", 0, line * 64, True)]
    assert run_pair(TINY_MACHINE, ops, hooks_at=len(ops)).reached[
        "back_invalidation"] == 1


def test_store_to_locked_line_snoop_misses_then_invalidates():
    """A store to a HALO-locked line counts a snoop miss and one retry,
    then runs the unlocked invalidation of the other sharers."""
    for hierarchy in _both(TINY_MACHINE):
        addr = 0x4000
        hierarchy.core_access(1, addr)
        assert hierarchy.lock_line(addr)
        result = hierarchy.core_access(0, addr, write=True)
        stats = hierarchy.snoop_filter.stats
        assert result.lock_retries == 1
        assert (stats.snoop_misses, stats.invalidation_rounds,
                stats.lines_invalidated) == (1, 1, 1)
        assert hierarchy.snoop_filter.sharers_of(addr // 64) == {0}
        stop = hierarchy.core_stop(0)
        assert result.latency == (
            LOCK_RETRY_CYCLES + hierarchy.latency.snoop_invalidate
            + hierarchy._nuca_route(stop, result.slice_id)[0])
    ops = [("load", 1, 0x4000, True), ("lock", 0x4000),
           ("store", 0, 0x4000, True)]
    run_pair(TINY_MACHINE, ops, hooks_at=len(ops))


def test_llc_hit_counts_link_crossing_on_two_sockets():
    machine = MACHINES["two-socket"]
    for hierarchy in _both(machine):
        # A line homed on socket 1, read from core 0 on socket 0.
        line = _column(hierarchy, 3, 12, 1)[0]
        hierarchy.core_access(0, line * 64)
        hierarchy.flush_private(0)
        crossings = hierarchy.interconnect.stats.link_crossings
        result = hierarchy.core_access(0, line * 64)
        assert result.level == "LLC"
        assert hierarchy.interconnect.stats.link_crossings == crossings + 1
        assert result.latency >= 2 * machine.topo.link_latency
    ops = [("load", 0, line * 64, True), ("flush_private", 0),
           ("load", 0, line * 64, True)]
    assert run_pair(machine, ops, hooks_at=1).reached[
        "llc_hit_link_crossing"] == 1


def test_flush_private_keeps_sharer_listed():
    """Pins a known fault both models share: ``flush_private`` leaves the
    core listed in the snoop filter, so a later store by another core pays
    an invalidation round trip for a copy no cache holds.  Fixing it moves
    simulated cycles; this test changes with that fix."""
    costs = []
    for read_first in (False, True):
        for hierarchy in _both(SKYLAKE_SP_16C):
            addr = 0x8000
            hierarchy.warm_llc(addr, 64)
            if read_first:
                hierarchy.core_access(0, addr)
                hierarchy.flush_private(0)
            result = hierarchy.core_access(1, addr, write=True)
            costs.append((read_first, result.latency, result.level,
                          hierarchy.snoop_filter.stats.lines_invalidated))
    assert costs[0] == costs[1] and costs[2] == costs[3]
    (_, cold, level, cold_invalidated), (_, flushed, _, invalidated) = (
        costs[0], costs[2])
    assert level == "LLC"
    assert flushed - cold == SKYLAKE_SP_16C.latency.snoop_invalidate
    assert (cold_invalidated, invalidated) == (0, 1)
