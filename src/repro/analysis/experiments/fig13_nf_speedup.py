"""Figure 13 — end-to-end throughput gains for hash-table-based NFs.

Paper result: HALO speeds NAT, prads, and a hash-based packet filter by
2.3-2.7× across their table-size configurations (Table 3: NAT/prads at
1K/10K/100K entries, filter at 100/1K/10K rules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ...core.halo_system import HaloSystem
from ...nf.nat import NAT_TABLE_SIZES, NatFunction
from ...nf.packet_filter import FILTER_RULE_SIZES, PacketFilterFunction
from ...nf.prads import PRADS_TABLE_SIZES, PradsFunction
from ...traffic.generator import FlowSet, PacketStream
from ..reporting import PaperCheck, format_table, render_checks


@dataclass
class Fig13Row:
    nf_name: str
    table_entries: int
    software_cycles: float
    halo_cycles: float
    speedup: float


def _nat(system: HaloSystem, size: int):
    nf = NatFunction(system, size)
    return nf, nf.populate_from_flows


def _prads(system: HaloSystem, size: int):
    nf = PradsFunction(system, size)
    return nf, nf.populate_from_flows


def _filter(system: HaloSystem, size: int):
    nf = PacketFilterFunction(system, size)
    return nf, (lambda flows: nf.install_rules_from_flows(flows, size))


NF_BUILDERS: Dict[str, Tuple[Callable, Sequence[int]]] = {
    "nat": (_nat, NAT_TABLE_SIZES),
    "prads": (_prads, PRADS_TABLE_SIZES),
    "pktfilter": (_filter, FILTER_RULE_SIZES),
}


def run_one(nf_name: str, size: int, packets: int = 250,
            seed: int = 9) -> Fig13Row:
    builder, _sizes = NF_BUILDERS[nf_name]
    system = HaloSystem()
    nf, populate = builder(system, size)
    flow_set = FlowSet.generate(max(size * 2, 2_000), seed=seed)
    populate(flow_set.flows)
    stream = PacketStream(flow_set, zipf_s=0.8, seed=seed + 1)
    flows = stream.take(packets)
    software, halo, speedup = nf.measure_speedup(flows)
    return Fig13Row(nf_name=nf_name, table_entries=size,
                    software_cycles=software.cycles_per_packet,
                    halo_cycles=halo.cycles_per_packet,
                    speedup=speedup)


def run(sizes_per_nf: Dict[str, Sequence[int]] = None,
        packets: int = 250, seed: int = 9) -> List[Fig13Row]:
    rows: List[Fig13Row] = []
    for nf_name, (_builder, default_sizes) in NF_BUILDERS.items():
        sizes = (sizes_per_nf or {}).get(nf_name, default_sizes)
        for size in sizes:
            rows.append(run_one(nf_name, size, packets=packets, seed=seed))
    return rows


def report(rows: List[Fig13Row]) -> str:
    table = format_table(
        ["NF", "entries", "software cyc/pkt", "HALO cyc/pkt", "speedup"],
        [(r.nf_name, r.table_entries, r.software_cycles, r.halo_cycles,
          f"{r.speedup:.2f}x") for r in rows],
        title="Figure 13 — hash-table NF throughput improvement with HALO")
    largest = {name: max((r for r in rows if r.nf_name == name),
                         key=lambda r: r.table_entries)
               for name in {r.nf_name for r in rows}}
    checks = [
        PaperCheck("speedup range at realistic sizes", "2.3-2.7x",
                   ", ".join(f"{name} {row.speedup:.2f}x"
                             for name, row in sorted(largest.items())),
                   holds=all(1.9 <= row.speedup <= 3.0
                             for row in largest.values())),
        PaperCheck("HALO helps every NF/size", "uniform gains",
                   f"min {min(r.speedup for r in rows):.2f}x",
                   holds=min(r.speedup for r in rows) > 1.3),
    ]
    return table + "\n\n" + render_checks("Figure 13", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "fig13",
    "artifact": "Figure 13",
    "slug": "fig13_nf_speedup",
    "title": "hash-table NF speedups",
    "grid": [
        ("nat", {"nf": "nat", "packets": 250, "seed": 9},
         {"nf": "nat", "sizes": [1_000], "packets": 80, "seed": 9}),
        ("prads", {"nf": "prads", "packets": 250, "seed": 9},
         {"nf": "prads", "sizes": [1_000], "packets": 80, "seed": 9}),
        ("pktfilter", {"nf": "pktfilter", "packets": 250, "seed": 9},
         {"nf": "pktfilter", "sizes": [100], "packets": 80, "seed": 9}),
    ],
}


def bench_run(label, params, seed):
    """Runner hook: one grid point = one NF's table-size column."""
    del label, seed
    nf_name = params["nf"]
    sizes = params.get("sizes") or NF_BUILDERS[nf_name][1]
    return [run_one(nf_name, size, packets=params["packets"],
                    seed=params["seed"])
            for size in sizes]


def bench_report(payloads):
    return report([row for rows in payloads.values() for row in rows])
