"""Multi-socket topology: params validation, socket math, interconnect
routing, hierarchy penalties — and the bit-identical single-socket
parity the PR 8 refactor promises (default machine vs ``scale_out(1)``,
plus pinned pre-refactor cycle counts)."""

import random

import pytest

from repro.core import HaloSystem
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.interconnect import Interconnect
from repro.sim.params import (
    SKYLAKE_SP_16C,
    TINY_MACHINE,
    LatencyParams,
    MachineParams,
    SocketParams,
    Topology,
)

LAT = LatencyParams()


# ---------------------------------------------------------------------------
# params validation


class TestSocketParamsValidation:
    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError, match="cores must be >= 1"):
            SocketParams(cores=0)

    def test_rejects_zero_slices_with_actionable_message(self):
        with pytest.raises(ValueError, match="at least one LLC slice"):
            SocketParams(llc_slices=0)


class TestTopologyValidation:
    def test_rejects_zero_sockets(self):
        with pytest.raises(ValueError, match="sockets must be >= 1"):
            Topology(sockets=0)

    def test_rejects_negative_link_latency(self):
        with pytest.raises(ValueError, match="link_latency must be >= 0"):
            Topology(sockets=2, link_latency=-1)

    def test_totals(self):
        topo = Topology(sockets=2, socket=SocketParams(cores=16,
                                                       llc_slices=16))
        assert topo.total_cores == 32
        assert topo.total_slices == 32


class TestMachineTopologyValidation:
    def test_rejects_non_divisible_cores(self):
        topo = Topology(sockets=3, socket=SocketParams(cores=5,
                                                       llc_slices=5))
        with pytest.raises(ValueError, match="not divisible by"):
            MachineParams(cores=16, llc_slices=15, topology=topo)

    def test_rejects_non_divisible_slices(self):
        topo = Topology(sockets=2, socket=SocketParams(cores=8,
                                                       llc_slices=8))
        with pytest.raises(ValueError,
                           match="llc_slices=15 is not divisible"):
            MachineParams(cores=16, llc_slices=15, topology=topo)

    def test_rejects_mismatched_core_total_with_fix_suggestion(self):
        topo = Topology(sockets=2, socket=SocketParams(cores=4,
                                                       llc_slices=8))
        with pytest.raises(ValueError,
                           match=r"SocketParams\(cores=8"):
            MachineParams(cores=16, llc_slices=16, topology=topo)

    def test_rejects_mismatched_slice_total(self):
        topo = Topology(sockets=2, socket=SocketParams(cores=8,
                                                       llc_slices=4))
        with pytest.raises(ValueError, match="topology mismatch"):
            MachineParams(cores=16, llc_slices=16, topology=topo)

    def test_rejects_zero_slices(self):
        with pytest.raises(ValueError, match="at least one slice"):
            MachineParams(cores=4, llc_slices=0)

    def test_default_machine_derives_single_socket(self):
        topo = SKYLAKE_SP_16C.topo
        assert topo.sockets == 1
        assert topo.socket.cores == SKYLAKE_SP_16C.cores
        assert topo.socket.llc_slices == SKYLAKE_SP_16C.llc_slices


class TestSocketMath:
    TOPO = Topology(sockets=2, socket=SocketParams(cores=16, llc_slices=16))

    def test_socket_of_core(self):
        assert self.TOPO.socket_of_core(0) == 0
        assert self.TOPO.socket_of_core(15) == 0
        assert self.TOPO.socket_of_core(16) == 1
        assert self.TOPO.socket_of_core(31) == 1

    def test_local_core(self):
        assert self.TOPO.local_core(0) == 0
        assert self.TOPO.local_core(17) == 1

    def test_core_on_round_trips(self):
        for socket in range(2):
            for local in range(16):
                global_id = self.TOPO.core_on(socket, local)
                assert self.TOPO.socket_of_core(global_id) == socket
                assert self.TOPO.local_core(global_id) == local

    def test_core_on_rejects_bad_socket(self):
        with pytest.raises(ValueError, match="socket 2 out of range"):
            self.TOPO.core_on(2, 0)

    def test_core_on_rejects_bad_local_core(self):
        with pytest.raises(ValueError, match="local core 16 out of range"):
            self.TOPO.core_on(0, 16)


class TestScaleOut:
    def test_counts_multiply(self):
        machine = SKYLAKE_SP_16C.scale_out(2)
        assert machine.cores == 32
        assert machine.llc_slices == 32
        assert machine.topology.sockets == 2
        assert machine.topology.socket.cores == 16

    def test_refuses_double_scale_out(self):
        machine = SKYLAKE_SP_16C.scale_out(2)
        with pytest.raises(ValueError, match="already has 2 sockets"):
            machine.scale_out(2)

    def test_scale_out_one_is_single_socket_twin(self):
        twin = SKYLAKE_SP_16C.scale_out(1)
        assert twin.cores == SKYLAKE_SP_16C.cores
        assert twin.topo.sockets == 1


# ---------------------------------------------------------------------------
# interconnect routing


class TestInterconnectTopology:
    def test_single_socket_hops_match_ring_formula(self):
        ring = Interconnect(16, LAT)
        for src in range(16):
            for dst in range(16):
                distance = abs(src - dst)
                assert ring.hops(src, dst) == min(distance, 16 - distance)

    def test_single_socket_never_crosses(self):
        ring = Interconnect(16, LAT)
        assert ring.link_crossings(0, 15) == 0
        assert ring.link_latency == 0

    def test_two_socket_local_routing_unchanged(self):
        topo = Topology(sockets=2, socket=SocketParams(16, 16))
        ring = Interconnect(32, LAT, topo)
        # Stops 16..31 are socket 1's local ring of 16.
        assert ring.hops(16, 17) == 1
        assert ring.hops(16, 31) == 1     # local ring wraps
        assert ring.link_crossings(16, 31) == 0

    def test_cross_socket_routes_via_link_stops(self):
        topo = Topology(sockets=2, socket=SocketParams(16, 16))
        ring = Interconnect(32, LAT, topo)
        # src local 3 -> its link stop (3 hops), dst local 2 -> 2 hops.
        assert ring.hops(3, 18) == 5
        assert ring.link_crossings(3, 18) == 1

    def test_cross_socket_transfer_pays_link_and_counts_it(self):
        topo = Topology(sockets=2, socket=SocketParams(16, 16),
                        link_latency=70)
        ring = Interconnect(32, LAT, topo)
        local = ring.transfer_latency(0, 1)
        assert ring.stats.link_crossings == 0
        remote = ring.transfer_latency(0, 16)   # both at local stop 0
        assert remote == 70                     # 0 fabric hops + 1 crossing
        assert ring.stats.link_crossings == 1
        assert local == LAT.hop

    def test_stops_must_tile_sockets(self):
        topo = Topology(sockets=2, socket=SocketParams(16, 16))
        with pytest.raises(ValueError, match="do not tile"):
            Interconnect(31, LAT, topo)

    def test_slice_hash_is_global_across_sockets(self):
        """One shared NUCA address space: the hash spreads lines over all
        sockets' slices, which is what creates cross-socket traffic."""
        topo = Topology(sockets=2, socket=SocketParams(16, 16))
        ring = Interconnect(32, LAT, topo)
        sockets_hit = {ring.socket_of_stop(ring.slice_of_line(line))
                       for line in range(256)}
        assert sockets_hit == {0, 1}


# ---------------------------------------------------------------------------
# hierarchy penalties


def _hierarchy(sockets: int) -> MemoryHierarchy:
    machine = (SKYLAKE_SP_16C if sockets == 1
               else SKYLAKE_SP_16C.scale_out(sockets))
    return MemoryHierarchy(machine)


class TestHierarchyMultiSocket:
    def test_single_socket_has_no_link_penalty(self):
        hierarchy = _hierarchy(1)
        assert hierarchy._link_round_trip == 0

    def test_core_stop_is_socket_local(self):
        hierarchy = _hierarchy(2)
        # Core 16 is socket 1's local core 0 -> socket 1's stop 16.
        assert hierarchy.core_stop(16) == 16
        assert hierarchy.socket_of_core(16) == 1
        # Single socket keeps the original identity mapping.
        single = _hierarchy(1)
        assert single.core_stop(5) == 5

    def test_remote_llc_access_pays_link_round_trip(self):
        hierarchy = _hierarchy(2)
        stop = 0                      # socket 0
        local_slice, remote_slice = 1, 17
        local = hierarchy._llc_latency_from(stop, local_slice)
        remote = hierarchy._llc_latency_from(
            stop, remote_slice - 16 + 16)  # same local offset, socket 1
        # Identical local fabric distance, so the difference is exactly
        # the link round trip (2 * 70 cycles).
        assert remote - local == 2 * hierarchy.topology.link_latency
        assert hierarchy.interconnect.stats.link_crossings > 0

    def test_remote_llc_lookup_counts_crossing(self):
        hierarchy = _hierarchy(2)
        before = hierarchy.interconnect.stats.link_crossings
        # Find a line homed on socket 1 and access it from core 0.
        line = next(l for l in range(512)
                    if hierarchy.interconnect.slice_of_line(l) >= 16)
        hierarchy.core_access(0, line * 64)
        assert hierarchy.interconnect.stats.link_crossings > before

    def test_local_socket_access_matches_single_socket_cost(self):
        """A core hitting a slice on its own socket pays single-socket
        NUCA arithmetic — the link is not involved."""
        single = _hierarchy(1)
        double = _hierarchy(2)
        for local_slice in range(16):
            assert (double._llc_latency_from(0, local_slice)
                    == single._llc_latency_from(0, local_slice))


# ---------------------------------------------------------------------------
# warm/flush boundary behaviour


class TestWarmFlushBoundaries:
    def test_warm_llc_unaligned_base(self):
        hierarchy = MemoryHierarchy(TINY_MACHINE)
        # 100..199 spans lines 1..3 despite the unaligned base.
        assert hierarchy.warm_llc(100, 100) == 3

    def test_warm_llc_zero_size_installs_nothing(self):
        hierarchy = MemoryHierarchy(TINY_MACHINE)
        assert hierarchy.warm_llc(128, 0) == 0
        assert sum(len(cache._sets) for cache in hierarchy.llc) == 0

    def test_warm_llc_spans_sockets(self):
        hierarchy = _hierarchy(2)
        lines = 64
        hierarchy.warm_llc(0, lines * 64)
        warmed_sockets = {
            hierarchy.socket_of_slice(
                hierarchy.interconnect.slice_of_line(line))
            for line in range(lines)}
        assert warmed_sockets == {0, 1}
        # Every warmed line must hit in its home slice afterwards.
        for line in range(lines):
            slice_id = hierarchy.interconnect.slice_of_line(line)
            assert hierarchy.llc[slice_id].contains(line)

    def test_flush_region_unaligned_and_exact(self):
        hierarchy = MemoryHierarchy(TINY_MACHINE)
        hierarchy.warm_llc(0, 256)              # lines 0..3
        hierarchy.flush_region(65, 1)           # just line 1
        for line in range(4):
            slice_id = hierarchy.interconnect.slice_of_line(line)
            assert hierarchy.llc[slice_id].contains(line) == (line != 1)

    def test_flush_region_zero_size_is_a_noop(self):
        hierarchy = MemoryHierarchy(TINY_MACHINE)
        hierarchy.warm_llc(64, 64)
        hierarchy.flush_region(64, 0)
        assert hierarchy.llc[
            hierarchy.interconnect.slice_of_line(1)].contains(1)

    def test_flush_region_spanning_sockets_evicts_everywhere(self):
        hierarchy = _hierarchy(2)
        lines = 64
        hierarchy.warm_llc(0, lines * 64)
        hierarchy.flush_region(0, lines * 64)
        for line in range(lines):
            slice_id = hierarchy.interconnect.slice_of_line(line)
            assert not hierarchy.llc[slice_id].contains(line)


# ---------------------------------------------------------------------------
# single-socket parity: the refactor must not move one cycle


def _pin_workload(machine=None):
    rng = random.Random(11)
    system = HaloSystem(machine=machine)
    table = system.create_table(1 << 8, name="pin")
    keys = [rng.randbytes(16) for _ in range(64)]
    for index, key in enumerate(keys):
        table.insert(key, index)
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    blocking = system.run_blocking_lookups(table, keys[:24])
    software = system.run_software_lookups(table, keys[24:48])
    nonblocking = system.run_nonblocking_lookups(table, keys[48:])
    return (blocking.cycles, software.cycles, nonblocking.cycles,
            system.engine.now)


class TestSingleSocketParity:
    #: Captured on the pre-topology tree (PR 7 head): blocking cycles,
    #: software cycles, non-blocking cycles, final engine.now.
    PINNED = (1600, 2999.0, 868.0, 5467.0)

    def test_default_machine_matches_pre_refactor_pin(self):
        assert _pin_workload() == pytest.approx(self.PINNED, rel=1e-12)

    def test_explicit_single_socket_topology_is_bit_identical(self):
        default = _pin_workload()
        explicit = _pin_workload(SKYLAKE_SP_16C.scale_out(1))
        assert default == explicit   # exact, not approx

    def test_two_sockets_change_the_numbers(self):
        """Sanity check that the pin would catch a wired-but-dead
        topology: with real cross-socket penalties the same workload
        must cost more."""
        double = _pin_workload(SKYLAKE_SP_16C.scale_out(2))
        assert double[3] > self.PINNED[3]

    def test_multicore_point_matches_pre_refactor_pin(self):
        from repro.analysis.experiments import multicore_scaling

        point = multicore_scaling.run_point(2, tuples=4, packets_per_core=4,
                                            seed=23)
        assert point.software_packets_per_kcycle == pytest.approx(
            4.275502705591556, rel=1e-12)
        assert point.halo_packets_per_kcycle == pytest.approx(
            16.913319238900634, rel=1e-12)
