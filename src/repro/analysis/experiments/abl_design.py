"""Ablations of the HALO design choices the paper fixes in §4.7.

The paper chose: 10 scoreboard entries, a 10-table metadata cache, one
fully-pipelined hash unit, and one accelerator per LLC slice, noting
these "maintain a decent balance between performance and hardware cost".
Four sweeps show the balance point:

* ``scoreboard`` — scoreboard depth vs TSS non-blocking fan-out;
* ``accelerators`` — accelerator (LLC slice) count vs overlap;
* ``metadata_cache`` — metadata-cache capacity vs multi-table hit rate;
* ``hash_pipeline`` — hash-unit issue interval (1 = fully pipelined).
"""

from __future__ import annotations

from typing import Generator, List, Sequence, Tuple

import numpy as np

from ...core.halo_system import HaloSystem
from ...sim.params import HaloParams, SKYLAKE_SP_16C
from ...traffic.generator import random_keys

DEFAULT_TUPLES = 20
DEFAULT_ENTRIES_PER_TUPLE = 1024
DEFAULT_PACKETS = 30
KEYS_PER_TUPLE = 800


def _tss_cycles_per_packet(machine, tuples: int, packets: int) -> float:
    """HALO-NB tuple space search cost on a given machine config."""
    system = HaloSystem(machine)
    tables = []
    keysets = []
    for index in range(tuples):
        table = system.create_table(DEFAULT_ENTRIES_PER_TUPLE,
                                    name=f"abl{index}")
        keys = random_keys(KEYS_PER_TUPLE, seed=300 + index)
        table.insert_many(zip(keys, range(len(keys))))
        system.warm_table(table)
        tables.append(table)
        keysets.append(keys)
    rng = np.random.default_rng(9)

    def program() -> Generator:
        for _packet in range(packets):
            hit = int(rng.integers(0, tuples))
            pending = []
            for index, table in enumerate(tables):
                key = (keysets[index][int(rng.integers(0, KEYS_PER_TUPLE))]
                       if index == hit else
                       bytes(rng.integers(0, 256, size=16,
                                          dtype=np.uint8)))
                process = yield from system.isa.lookup_nb(0, table, key)
                pending.append(process)
            yield from system.isa.snapshot_read_poll(0, pending)
        return []

    start = system.engine.now
    system.engine.run_process(program())
    return (system.engine.now - start) / packets


def run_scoreboard(depths: Sequence[int] = (1, 2, 5, 10, 20),
                   tuples: int = DEFAULT_TUPLES,
                   packets: int = DEFAULT_PACKETS
                   ) -> List[Tuple[int, float]]:
    return [(depth,
             _tss_cycles_per_packet(
                 SKYLAKE_SP_16C.scaled(
                     halo=HaloParams(scoreboard_entries=depth)),
                 tuples, packets))
            for depth in depths]


def run_accelerators(slice_counts: Sequence[int] = (2, 4, 8, 16),
                     tuples: int = DEFAULT_TUPLES,
                     packets: int = DEFAULT_PACKETS
                     ) -> List[Tuple[int, float]]:
    return [(slices,
             _tss_cycles_per_packet(
                 SKYLAKE_SP_16C.scaled(llc_slices=slices, cores=slices),
                 tuples, packets))
            for slices in slice_counts]


def run_hash_pipeline(intervals: Sequence[int] = (1, 3),
                      tuples: int = DEFAULT_TUPLES,
                      packets: int = DEFAULT_PACKETS
                      ) -> List[Tuple[int, float]]:
    return [(interval,
             _tss_cycles_per_packet(
                 SKYLAKE_SP_16C.scaled(
                     halo=HaloParams(hash_issue_interval=interval)),
                 tuples, packets))
            for interval in intervals]


def _metadata_workload(system, tables_count: int, rounds: int) -> float:
    """Round-robin over many tables: stresses the metadata cache."""
    tables = []
    keysets = []
    for index in range(tables_count):
        table = system.create_table(256, name=f"meta{index}")
        keys = random_keys(128, seed=400 + index)
        table.insert_many(zip(keys, range(len(keys))))
        system.warm_table(table)
        tables.append(table)
        keysets.append(keys)

    def program():
        for round_index in range(rounds):
            for index, table in enumerate(tables):
                yield from system.isa.lookup_b(
                    0, table, keysets[index][round_index])
        return []

    start = system.engine.now
    system.engine.run_process(program())
    return (system.engine.now - start) / (rounds * tables_count)


def run_metadata_cache(table_counts: Sequence[int] = (1, 2, 5, 10),
                       tables: int = 24, rounds: int = 8
                       ) -> List[Tuple[int, float, float]]:
    rows: List[Tuple[int, float, float]] = []
    for capacity in table_counts:
        machine = SKYLAKE_SP_16C.scaled(
            halo=HaloParams(metadata_cache_tables=capacity))
        system = HaloSystem(machine)
        cycles = _metadata_workload(system, tables, rounds)
        hits = sum(acc.stats.metadata_hits for acc in system.accelerators)
        misses = sum(acc.stats.metadata_misses
                     for acc in system.accelerators)
        rate = hits / (hits + misses) if hits + misses else 0.0
        rows.append((capacity, cycles, rate))
    return rows


def report_scoreboard(rows: List[Tuple[int, float]]) -> str:
    lines = ["Ablation — scoreboard depth (TSS NB cycles/packet):"]
    lines += [f"  depth {depth:2d}: {cycles:7.1f}" for depth, cycles in rows]
    lines.append("  paper picks 10: deeper adds little, shallower hurts")
    return "\n".join(lines)


def report_accelerators(rows: List[Tuple[int, float]]) -> str:
    lines = ["Ablation — accelerators (LLC slices), TSS NB cycles/packet:"]
    lines += [f"  {slices:2d} accelerators: {cycles:7.1f}"
              for slices, cycles in rows]
    lines.append("  distributed design: more accelerators -> more overlap")
    return "\n".join(lines)


def report_metadata_cache(rows: List[Tuple[int, float, float]]) -> str:
    lines = ["Ablation — metadata cache capacity "
             "(multi-table round robin, LOOKUP_B):"]
    lines += [f"  {capacity:2d} tables: {cycles:6.1f} cyc/lookup, "
              f"{rate*100:5.1f}% metadata hits"
              for capacity, cycles, rate in rows]
    return "\n".join(lines)


def report_hash_pipeline(rows: List[Tuple[int, float]]) -> str:
    lines = ["Ablation — hash-unit issue interval (1 = fully pipelined):"]
    lines += [f"  interval {interval}: {cycles:7.1f} cyc/packet"
              for interval, cycles in rows]
    return "\n".join(lines)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "abl_design",
    "artifact": "§4.7 ablations",
    "slug": "ablation_halo_design",
    "title": "design-knob ablations (scoreboard/accelerators/metadata/hash)",
    "grid": [
        ("scoreboard",
         {"depths": [1, 2, 5, 10, 20], "tuples": 20, "packets": 30},
         {"depths": [1, 10], "tuples": 8, "packets": 10}),
        ("accelerators",
         {"slice_counts": [2, 4, 8, 16], "tuples": 20, "packets": 30},
         {"slice_counts": [2, 16], "tuples": 8, "packets": 10}),
        ("metadata_cache",
         {"table_counts": [1, 2, 5, 10], "tables": 24, "rounds": 8},
         {"table_counts": [1, 10], "tables": 8, "rounds": 4}),
        ("hash_pipeline",
         {"intervals": [1, 3], "tuples": 20, "packets": 30},
         {"intervals": [1, 3], "tuples": 8, "packets": 10}),
    ],
}


def bench_run(label, params, seed):
    """Runner hook: one grid point = one §4.7 design-knob sweep."""
    del seed  # workloads are pinned (seeds 9/300+/400+) for comparability
    if label == "scoreboard":
        return run_scoreboard(tuple(params["depths"]),
                              tuples=params["tuples"],
                              packets=params["packets"])
    if label == "accelerators":
        return run_accelerators(tuple(params["slice_counts"]),
                                tuples=params["tuples"],
                                packets=params["packets"])
    if label == "metadata_cache":
        return run_metadata_cache(tuple(params["table_counts"]),
                                  tables=params["tables"],
                                  rounds=params["rounds"])
    if label == "hash_pipeline":
        return run_hash_pipeline(tuple(params["intervals"]),
                                 tuples=params["tuples"],
                                 packets=params["packets"])
    raise ValueError(f"unknown abl_design grid label {label!r}")


def bench_report(payloads):
    renderers = {
        "scoreboard": report_scoreboard,
        "accelerators": report_accelerators,
        "metadata_cache": report_metadata_cache,
        "hash_pipeline": report_hash_pipeline,
    }
    return "\n\n".join(renderers[label](rows)
                       for label, rows in payloads.items())
