"""Scale-out law: per-socket HALO vs sharded vswitch instances (§6).

The paper evaluates HALO on one 16-core socket (§6); the natural
operator question it leaves open is how to spend the *next* socket.  Two
answers compete:

* **scale up** — one monolithic vswitch on a multi-socket NUCA machine
  (PR 8's :class:`~repro.sim.params.Topology`): every socket gets its
  own ring of HALO slices, but the shared flow table's home slices
  spread over *all* sockets, so half the lookups pay the inter-socket
  link round trip;
* **scale out** — N independent single-socket vswitch shards behind a
  deterministic RSS flow-hash balancer
  (:mod:`repro.cluster`): no cross-socket traffic ever, but the stream
  splits by flow hash, so a skewed (Zipf) flow popularity piles load
  onto one shard until the balancer rewrites its indirection table.

This experiment sweeps sockets × shards × skew and reports cluster
throughput (total lookups over the slowest shard's cycles) and merged
p50/p99 lookup latency, making the crossover measurable: sharding wins
throughput as soon as the link penalty bites, and skew-triggered
rebalancing recovers most of the uniform-traffic shard balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ...cluster import ClusterConfig, run_cluster
from ..reporting import PaperCheck, format_table, render_checks


@dataclass
class ScalingPoint:
    """One cluster configuration's merged outcome (picklable payload)."""

    label: str
    shards: int
    sockets: int
    zipf_s: float
    rebalance: bool
    total_lookups: int
    throughput_per_kcycle: float
    p50_cycles: float
    p99_cycles: float
    max_shard_fraction: float
    link_crossings: int
    rebalance_moves: int
    imbalance_before: float
    imbalance_after: float


def run_point(label: str, params: Dict, seed: int = 1234) -> ScalingPoint:
    """Run one cluster configuration and flatten it into a point."""
    config = ClusterConfig(seed=seed, **params)
    result = run_cluster(config)
    return ScalingPoint(
        label=label,
        shards=config.shards,
        sockets=config.sockets,
        zipf_s=config.zipf_s,
        rebalance=config.rebalance,
        total_lookups=result.total_lookups,
        throughput_per_kcycle=result.throughput_per_kcycle,
        p50_cycles=result.p50_cycles,
        p99_cycles=result.p99_cycles,
        max_shard_fraction=result.max_shard_fraction,
        link_crossings=result.link_crossings,
        rebalance_moves=result.rebalance_moves,
        imbalance_before=result.imbalance_before,
        imbalance_after=result.imbalance_after,
    )


def run(flows: int = 512, lookups: int = 4000,
        seed: int = 1234) -> List[ScalingPoint]:
    return [run_point(label, dict(params, flows=flows, lookups=lookups),
                      seed=seed)
            for label, params, _quick in BENCH["grid"]]


def report(points: List[ScalingPoint]) -> str:
    by_label = {point.label: point for point in points}
    rows = [(point.label, point.shards, point.sockets,
             f"{point.zipf_s:.1f}",
             f"{point.throughput_per_kcycle:.2f}",
             f"{point.p50_cycles:.0f}", f"{point.p99_cycles:.0f}",
             f"{point.max_shard_fraction:.2f}",
             point.link_crossings, point.rebalance_moves)
            for point in points]
    table = format_table(
        ["config", "shards", "sockets", "zipf", "lookups/kcyc",
         "p50", "p99", "max share", "link xings", "moves"],
        rows,
        title="Scale-out law: per-socket HALO vs sharded vswitch cluster")

    checks: List[PaperCheck] = []
    mono_2s = by_label.get("mono_2s")
    shard_2 = by_label.get("shard_2")
    if mono_2s and shard_2:
        checks.append(PaperCheck(
            "sharding beats the second socket",
            "link round trips tax the monolithic NUCA machine",
            f"2 shards {shard_2.throughput_per_kcycle:.2f} vs 2 sockets "
            f"{mono_2s.throughput_per_kcycle:.2f} lookups/kcyc "
            f"({mono_2s.link_crossings} link crossings)",
            holds=(shard_2.throughput_per_kcycle
                   > mono_2s.throughput_per_kcycle
                   and mono_2s.link_crossings > 0)))
    skew = by_label.get("skew_4")
    rebal = by_label.get("skew_4_rebal")
    if skew and rebal:
        checks.append(PaperCheck(
            "rebalancing tames skew",
            "indirection-table rewrite shrinks the hottest shard",
            f"max share {skew.max_shard_fraction:.2f} -> "
            f"{rebal.max_shard_fraction:.2f} "
            f"({rebal.rebalance_moves} entry moves)",
            holds=(rebal.rebalance_moves > 0
                   and rebal.max_shard_fraction
                   < skew.max_shard_fraction)))
    shard_4 = by_label.get("shard_4")
    if shard_2 and shard_4:
        checks.append(PaperCheck(
            "scale-out keeps scaling",
            "more shards, more aggregate throughput",
            f"{shard_2.throughput_per_kcycle:.2f} -> "
            f"{shard_4.throughput_per_kcycle:.2f} lookups/kcyc",
            holds=(shard_4.throughput_per_kcycle
                   > shard_2.throughput_per_kcycle)))
    return table + "\n\n" + render_checks("scale-out law", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

_FULL = {"flows": 512, "lookups": 4000}
_QUICK = {"flows": 96, "lookups": 600}


def _point(shards, sockets=1, zipf_s=0.0, rebalance=False):
    base = {"shards": shards, "sockets": sockets,
            "zipf_s": zipf_s, "rebalance": rebalance}
    return dict(base, **_FULL), dict(base, **_QUICK)


_GRID_POINTS = [
    ("mono_1s", *_point(shards=1, sockets=1)),
    ("mono_2s", *_point(shards=1, sockets=2)),
    ("shard_2", *_point(shards=2)),
    ("shard_4", *_point(shards=4)),
    ("shard_2x2s", *_point(shards=2, sockets=2)),
    ("skew_4", *_point(shards=4, zipf_s=1.2)),
    ("skew_4_rebal", *_point(shards=4, zipf_s=1.2, rebalance=True)),
]

BENCH = {
    "name": "scaling_law",
    "artifact": "§6 extension (scale-out)",
    "slug": "scaling_law",
    "title": "scale-out law: per-socket HALO vs sharded cluster",
    "grid": _GRID_POINTS,
}


def bench_run(label, params, seed):
    """Runner hook: one grid point = one cluster configuration."""
    return run_point(label, params, seed=seed)


def bench_report(payloads):
    return report(list(payloads.values()))
