#!/usr/bin/env python3
"""An NFV service chain: packet filter -> NAT -> asset monitor.

Each VNF in the chain is hash-table-bound (Table 3's NAT, prads, and
packet-filter workloads).  The example runs the same packet stream through
the chain with software lookups and with HALO acceleration, reproducing
the Figure 13 story end to end — including the per-NF breakdown.

Run:  python examples/nfv_service_chain.py
"""

from repro.core import HaloSystem
from repro.nf import NatFunction, PacketFilterFunction, PradsFunction
from repro.traffic import FlowSet, PacketStream

PACKETS = 300


def build_chain(system: HaloSystem, flow_set, use_halo: bool):
    """The three chained VNFs, each with realistic table sizes."""
    pkt_filter = PacketFilterFunction(system, table_entries=1_000,
                                      use_halo=use_halo)
    pkt_filter.install_rules_from_flows(flow_set.flows[::7], count=500)
    nat = NatFunction(system, table_entries=10_000, use_halo=use_halo)
    nat.populate_from_flows(flow_set.flows[:9_000])
    prads = PradsFunction(system, table_entries=10_000, use_halo=use_halo)
    prads.populate_from_flows(flow_set.flows[:9_000])
    return [pkt_filter, nat, prads]


def run_chain(chain, flows) -> float:
    """Total cycles for the stream through all three VNFs."""
    pkt_filter = chain[0]
    total = 0.0
    for flow in flows:
        dropped_before = pkt_filter.dropped
        total += pkt_filter.process(flow)
        if pkt_filter.dropped > dropped_before:
            continue   # filtered packets skip the rest of the chain
        for nf in chain[1:]:
            total += nf.process(flow)
    return total


def main() -> None:
    flow_set = FlowSet.generate(20_000, seed=17)
    stream = PacketStream(flow_set, zipf_s=0.8, seed=18)
    flows = stream.take(PACKETS)

    print(f"service chain: packet-filter(1K rules) -> NAT(10K bindings) "
          f"-> prads(10K assets); {PACKETS} packets\n")

    results = {}
    for label, use_halo in (("software", False), ("HALO", True)):
        system = HaloSystem()
        chain = build_chain(system, flow_set, use_halo)
        cycles = run_chain(chain, flows)
        results[label] = cycles
        print(f"{label:9s}: {cycles / PACKETS:8.1f} cycles/packet "
              f"through the chain")
        for nf in chain:
            print(f"           {nf.name:10s} {nf.stats.cycles_per_packet:7.1f}"
                  f" cycles/pkt  ({nf.stats.throughput_mpps():6.2f} Mpps "
                  f"standalone)")

    print(f"\nchain speedup with HALO: "
          f"{results['software'] / results['HALO']:.2f}x.")
    print("chained VNFs keep each other's tables L2-warm, so the gain is\n"
          "Amdahl-limited below the paper's isolated-NF 2.3-2.7x\n"
          "(`python -m repro run fig13` reproduces that configuration).")


if __name__ == "__main__":
    main()
