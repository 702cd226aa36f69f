"""Figure 11 — tuple space search throughput vs tuple count.

Paper result: HALO's non-blocking mode scales tuple space search up to
23.4× over software at 20 tuples (queries to all tuples dispatched at once
across the distributed accelerators); blocking mode is limited (it
serialises per-tuple lookups); TCAM-class devices hold one wildcard table
and stay flat/fastest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Sequence

import numpy as np

from ...core.halo_system import HaloSystem
from ...tcam.tcam import SRAM_TCAM_SEARCH_CYCLES, TCAM_SEARCH_CYCLES
from ...traffic.generator import random_keys
from ..reporting import PaperCheck, format_table, render_checks

#: The paper's tuple-count sweep; 1024 flow entries per tuple (§5.2).
DEFAULT_TUPLE_COUNTS = (5, 10, 15, 20)
ENTRIES_PER_TUPLE = 1024


@dataclass
class Fig11Point:
    num_tuples: int
    cycles_per_packet: Dict[str, float] = field(default_factory=dict)

    def normalized_throughput(self) -> Dict[str, float]:
        software = self.cycles_per_packet["software"]
        return {name: software / value
                for name, value in self.cycles_per_packet.items()}


def _build_tuples(system: HaloSystem, num_tuples: int, seed: int):
    tables = []
    keysets = []
    for index in range(num_tuples):
        table = system.create_table(ENTRIES_PER_TUPLE,
                                    name=f"tuple{index}")
        keys = random_keys(int(ENTRIES_PER_TUPLE * 0.8),
                           seed=seed * 100 + index)
        table.insert_many(zip(keys, range(len(keys))))
        system.warm_table(table)
        tables.append(table)
        keysets.append(keys)
    return tables, keysets


def _packet_keys(rng, keysets, hit_tuple: int) -> List[bytes]:
    """Per-tuple masked keys for one packet: only ``hit_tuple`` matches."""
    keys = []
    for index, keyset in enumerate(keysets):
        if index == hit_tuple:
            keys.append(keyset[int(rng.integers(0, len(keyset)))])
        else:
            keys.append(bytes(rng.integers(0, 256, size=16,
                                           dtype=np.uint8)))
    return keys


def run_point(num_tuples: int, packets: int = 40, seed: int = 10) -> Fig11Point:
    system = HaloSystem()
    tables, keysets = _build_tuples(system, num_tuples, seed)
    rng = np.random.default_rng(seed + 1)
    # MegaFlow search order is unordered w.r.t. the matching tuple; draw the
    # hit tuple uniformly so software searches half the tuples on average.
    hit_tuples = [int(rng.integers(0, num_tuples)) for _ in range(packets)]
    packet_key_lists = [_packet_keys(rng, keysets, hit)
                        for hit in hit_tuples]

    point = Fig11Point(num_tuples=num_tuples)

    # -- software: sequential tuple search, stop at first hit -----------------
    engine = system.software_engine()
    software_cycles = 0.0
    for keys in packet_key_lists:
        # Between packets the rest of the pipeline (EMC, packet buffers,
        # actions) sweeps the private caches; in steady state the tuple
        # tables are LLC-resident, as in the paper's OVS measurements.
        system.hierarchy.flush_private(0)
        for index, table in enumerate(tables):
            value, result = engine.lookup(table, keys[index])
            software_cycles += result.cycles
            if value is not None:
                break
    point.cycles_per_packet["software"] = software_cycles / packets

    # -- HALO blocking: LOOKUP_B per tuple, stop at first hit ------------------
    def blocking_program() -> Generator:
        for keys in packet_key_lists:
            for index, table in enumerate(tables):
                result = yield from system.isa.lookup_b(0, table,
                                                        keys[index])
                if result.found:
                    break
        return []

    start = system.engine.now
    system.engine.run_process(blocking_program())
    point.cycles_per_packet["halo-b"] = (system.engine.now
                                         - start) / packets

    # -- HALO non-blocking: all tuples at once + SNAPSHOT_READ ------------------
    def nonblocking_program() -> Generator:
        for keys in packet_key_lists:
            pending = []
            for index, table in enumerate(tables):
                process = yield from system.isa.lookup_nb(0, table,
                                                          keys[index])
                pending.append(process)
            yield from system.isa.snapshot_read_poll(0, pending)
        return []

    start = system.engine.now
    system.engine.run_process(nonblocking_program())
    point.cycles_per_packet["halo-nb"] = (system.engine.now
                                          - start) / packets

    # -- TCAM-class: one wildcard search per packet ------------------------------
    point.cycles_per_packet["tcam"] = float(TCAM_SEARCH_CYCLES)
    point.cycles_per_packet["sram-tcam"] = float(SRAM_TCAM_SEARCH_CYCLES)
    return point


def run(tuple_counts: Sequence[int] = DEFAULT_TUPLE_COUNTS,
        packets: int = 40, seed: int = 10) -> List[Fig11Point]:
    return [run_point(count, packets=packets, seed=seed)
            for count in tuple_counts]


def report(points: List[Fig11Point]) -> str:
    solutions = ("software", "halo-b", "halo-nb", "tcam", "sram-tcam")
    rows = []
    for point in points:
        normalized = point.normalized_throughput()
        rows.append((point.num_tuples,
                     f"{point.cycles_per_packet['software']:.0f}")
                    + tuple(f"{normalized[s]:.1f}x" for s in solutions))
    table = format_table(
        ["tuples", "sw cyc/pkt"] + list(solutions), rows,
        title="Figure 11 — tuple space search throughput "
              "normalised to software")

    last = points[-1].normalized_throughput()
    first = points[0].normalized_throughput()
    checks = [
        PaperCheck("HALO-NB at 20 tuples", "up to 23.4x",
                   f"{last['halo-nb']:.1f}x",
                   holds=14.0 <= last["halo-nb"] <= 30.0),
        PaperCheck("HALO-NB scaling with tuples", "grows",
                   f"{first['halo-nb']:.1f}x -> {last['halo-nb']:.1f}x",
                   holds=last["halo-nb"] > first["halo-nb"] * 1.5),
        PaperCheck("HALO-B", "limited (serialised)",
                   f"{last['halo-b']:.1f}x flat",
                   holds=last["halo-b"] < 4.0),
        PaperCheck("TCAM", "best", f"{last['tcam']:.0f}x",
                   holds=last["tcam"] > last["halo-nb"]),
    ]
    return table + "\n\n" + render_checks("Figure 11", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "fig11",
    "artifact": "Figure 11",
    "slug": "fig11_tuple_space",
    "title": "tuple space search scaling",
    "grid": [
        (f"tuples_{count:02d}",
         {"num_tuples": count, "packets": 40, "seed": 10},
         {"num_tuples": count, "packets": 15, "seed": 10})
        for count in DEFAULT_TUPLE_COUNTS
    ],
}


def bench_run(label, params, seed):
    """Runner hook: one grid point = one tuple-space size."""
    del label, seed
    return run_point(params["num_tuples"], packets=params["packets"],
                     seed=params["seed"])


def bench_report(payloads):
    return report(list(payloads.values()))
