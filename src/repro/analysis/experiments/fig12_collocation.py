"""Figure 12 — performance interference on collocated network functions.

Paper result: co-running the software virtual switch drops ACL/Snort/mTCP
throughput by 17-26% (worse with more flows) via L1D pollution, while the
HALO switch costs the collocated NFs less than 3.2% regardless of traffic.

The collocated phase runs the switch PMD loop and the NF inner loop as two
concurrent DES programs on one engine (see :mod:`repro.nf.collocation`):
software and HALO classification are both :mod:`repro.exec` backends, so
the interference is timed on a genuinely shared timeline rather than
emulated by synchronous interleaving.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ...core.halo_system import HaloSystem
from ...nf.acl import AclFunction
from ...nf.collocation import CollocationResult, run_collocation
from ...nf.ids import IdsFunction
from ...nf.tcpstack import TcpStackFunction
from ...vswitch.switch import SwitchMode
from ..reporting import PaperCheck, format_table, render_checks

NF_FACTORIES: Dict[str, Callable[[HaloSystem], object]] = {
    "acl": lambda system: AclFunction(system.hierarchy),
    "snort": lambda system: IdsFunction(system.hierarchy),
    "mtcp": lambda system: TcpStackFunction(system.hierarchy),
}

DEFAULT_FLOW_COUNTS = (1_000, 50_000)
DEFAULT_MODES = (SwitchMode.SOFTWARE, SwitchMode.HALO_NONBLOCKING)


def run(flow_counts: Sequence[int] = DEFAULT_FLOW_COUNTS,
        modes: Sequence[SwitchMode] = DEFAULT_MODES,
        packets: int = 400, warmup: int = 400,
        nf_names: Sequence[str] = ("acl", "snort", "mtcp"),
        ) -> List[CollocationResult]:
    results: List[CollocationResult] = []
    for name in nf_names:
        factory = NF_FACTORIES[name]
        for flows in flow_counts:
            for mode in modes:
                results.append(run_collocation(
                    factory, num_flows=flows, switch_mode=mode,
                    packets=packets, warmup=warmup))
    return results


def report(results: List[CollocationResult]) -> str:
    table = format_table(
        ["NF", "flows", "switch", "drop", "L1D miss solo", "L1D miss coloc"],
        [(r.nf_name, r.num_flows, r.switch_mode.value,
          f"{r.throughput_drop*100:.1f}%",
          f"{r.solo_l1_miss_ratio*100:.1f}%",
          f"{r.colocated_l1_miss_ratio*100:.1f}%") for r in results],
        title="Figure 12 — collocated NF interference")

    software = [r for r in results
                if r.switch_mode is SwitchMode.SOFTWARE]
    halo = [r for r in results
            if r.switch_mode is not SwitchMode.SOFTWARE]
    max_sw_drop = max(r.throughput_drop for r in software)
    max_halo_drop = max(r.throughput_drop for r in halo)
    checks = [
        PaperCheck("software-switch NF drop", "17-26%",
                   f"up to {max_sw_drop*100:.1f}%",
                   holds=0.08 < max_sw_drop <= 0.35),
        PaperCheck("HALO-switch NF drop", "< 3.2%",
                   f"up to {max_halo_drop*100:.1f}%",
                   holds=max_halo_drop < 0.05),
        PaperCheck("mechanism", "L1D miss-ratio increase",
                   "software raises NF L1D misses, HALO barely",
                   holds=all(r.l1_miss_increase > 0.05 for r in software)
                   and all(r.l1_miss_increase < 0.08 for r in halo)),
    ]
    return table + "\n\n" + render_checks("Figure 12", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "fig12",
    "artifact": "Figure 12",
    "slug": "fig12_collocation",
    "title": "collocated NF interference",
    "grid": [
        (nf,
         {"nf": nf, "flow_counts": [1_000, 50_000],
          "packets": 400, "warmup": 400},
         {"nf": nf, "flow_counts": [5_000], "packets": 150, "warmup": 150}
         if nf == "acl" else None)
        for nf in ("acl", "snort", "mtcp")
    ],
}


def bench_run(label, params, seed):
    """Runner hook: one grid point = one collocated NF."""
    del label, seed
    return run(flow_counts=tuple(params["flow_counts"]),
               packets=params["packets"], warmup=params["warmup"],
               nf_names=(params["nf"],))


def bench_report(payloads):
    return report([result for results in payloads.values()
                   for result in results])
