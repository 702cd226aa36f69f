"""Collocation experiments — Figure 12.

Runs a network function and the virtual switch on the *same* core (SMT
siblings share the L1/L2 in our model) and measures the NF's throughput
drop and L1D miss-ratio increase caused by the switch's cache footprint.

With the software switch, every classification walks EMC buckets, MegaFlow
tuples, and key-value lines through the shared private caches — evicting
the NF's hot state.  With HALO, lookups execute at the CHAs and the private
caches stay mostly clean, so the drop collapses to a few percent.

The collocated phase runs the switch's PMD loop and the NF's inner loop as
*concurrent DES programs* on the system engine (both software and HALO
classification are engine-scheduled backends), synchronised into the same
per-round packet ordering as the solo measurement so only cache pressure —
not packet order — differs between the phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..classifier.flow import FiveTuple
from ..core.halo_system import HaloSystem
from ..sim.engine import Store
from ..traffic.generator import PacketStream
from ..traffic.profiles import TrafficProfile
from ..vswitch.switch import SwitchMode, VirtualSwitch
from .base import NetworkFunction

#: Switch packets processed between consecutive NF packets when
#: collocated (SMT siblings make roughly equal forward progress).
INTERLEAVE = 1


@dataclass
class CollocationResult:
    """One NF x switch-mode x flow-count measurement."""

    nf_name: str
    switch_mode: SwitchMode
    num_flows: int
    solo_cycles_per_packet: float
    colocated_cycles_per_packet: float
    solo_l1_miss_ratio: float
    colocated_l1_miss_ratio: float

    @property
    def throughput_drop(self) -> float:
        """Fractional NF throughput loss when collocated (Figure 12a)."""
        if self.colocated_cycles_per_packet <= 0:
            return 0.0
        return 1.0 - (self.solo_cycles_per_packet
                      / self.colocated_cycles_per_packet)

    @property
    def l1_miss_increase(self) -> float:
        """Absolute L1D miss-ratio increase (Figure 12b)."""
        return self.colocated_l1_miss_ratio - self.solo_l1_miss_ratio


def _nf_packet_with_l1_delta(nf: NetworkFunction,
                             flow: FiveTuple) -> tuple:
    """Process one NF packet, returning (cycles, l1_hits, l1_misses) deltas
    attributable to the NF alone (the switch shares the same L1)."""
    stats = nf.hierarchy.l1[nf.core.core_id].stats
    hits_before, misses_before = stats.hits, stats.misses
    cycles = nf.process(flow)
    return (cycles, stats.hits - hits_before, stats.misses - misses_before)


def run_collocation(
    nf_factory: Callable[[HaloSystem], NetworkFunction],
    num_flows: int,
    switch_mode: SwitchMode,
    packets: int = 600,
    warmup: int = 200,
    num_rules: int = 10,
    seed: int = 31,
) -> CollocationResult:
    """Measure one Figure 12 cell."""
    system = HaloSystem()
    nf = nf_factory(system)
    core_id = nf.core.core_id

    profile = TrafficProfile(name="colloc", description="collocation",
                             num_flows=num_flows, num_rules=num_rules,
                             zipf_s=0.6, seed=seed)
    flow_set, rules = profile.build()
    switch = VirtualSwitch(system, switch_mode, core_id=core_id,
                           megaflow_tuple_capacity=1 << 16)
    switch.install_rules(rules)
    switch.prewarm_megaflows(flow_set.flows)
    switch.warm()

    switch_stream = PacketStream(flow_set, zipf_s=profile.zipf_s, seed=seed)
    # One fixed NF packet list reused by warmup, solo, and collocated phases,
    # so NF-side state (connection tables, asset records) is identical in
    # both measurements and only the switch's cache pressure differs.
    nf_flows = PacketStream(flow_set, zipf_s=0.9, seed=seed + 1).take(packets)

    def _measure_solo() -> tuple:
        cycles = hits = misses = 0.0
        for flow in nf_flows:
            packet_cycles, packet_hits, packet_misses = \
                _nf_packet_with_l1_delta(nf, flow)
            cycles += packet_cycles
            hits += packet_hits
            misses += packet_misses
        accesses = hits + misses
        return cycles / len(nf_flows), (misses / accesses if accesses else 0.0)

    def _measure_collocated() -> tuple:
        # Switch PMD loop and NF inner loop as two concurrent engine
        # processes, turn-taking through a Store so each round keeps the
        # solo phase's packet order (``INTERLEAVE`` switch packets, then
        # one NF packet) while both genuinely share the engine timeline.
        engine = system.engine
        switch_turn = Store(engine)
        nf_turn = Store(engine)
        totals = {"cycles": 0.0, "hits": 0.0, "misses": 0.0}

        def switch_prog():
            for _ in nf_flows:
                yield switch_turn.get()
                for switch_flow in switch_stream.take(INTERLEAVE):
                    yield from switch.packet_program(switch_flow)
                nf_turn.put(None)

        def nf_prog():
            l1 = nf.hierarchy.l1[nf.core.core_id].stats
            for flow in nf_flows:
                yield nf_turn.get()
                hits_before, misses_before = l1.hits, l1.misses
                totals["cycles"] += yield from nf.packet_program(engine, flow)
                totals["hits"] += l1.hits - hits_before
                totals["misses"] += l1.misses - misses_before
                switch_turn.put(None)

        engine.process(switch_prog(), name="switch_pmd")
        engine.process(nf_prog(), name=f"{nf.name}_loop")
        switch_turn.put(None)
        engine.run()
        accesses = totals["hits"] + totals["misses"]
        return (totals["cycles"] / len(nf_flows),
                (totals["misses"] / accesses if accesses else 0.0))

    # -- warmup: working set resident, NF tables populated ----------------------
    nf.warm()
    for flow in (nf_flows * ((warmup // packets) + 1))[:warmup]:
        nf.process(flow)
    for flow in switch_stream.take(warmup):
        switch.process_flow(flow)

    # -- solo phase (NF alone, post-warm) -----------------------------------------
    # Re-settle the hot set into L1 (warm() sweeps the region and leaves the
    # tail resident, not the hot head).
    for flow in nf_flows[:min(len(nf_flows), 200)]:
        nf.process(flow)
    solo_cpp, solo_miss_ratio = _measure_solo()

    # -- collocated phase (switch interleaves on the same core) --------------------
    coloc_cpp, coloc_miss_ratio = _measure_collocated()

    return CollocationResult(
        nf_name=nf.name,
        switch_mode=switch_mode,
        num_flows=num_flows,
        solo_cycles_per_packet=solo_cpp,
        colocated_cycles_per_packet=coloc_cpp,
        solo_l1_miss_ratio=solo_miss_ratio,
        colocated_l1_miss_ratio=coloc_miss_ratio,
    )

