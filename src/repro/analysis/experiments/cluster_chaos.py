"""Chaos-tested cluster failover: kill shards, lose zero flows.

The paper's hybrid mode degrades gracefully when the flow register
overflows (§4.4); this experiment asks the scale-out version of that
question.  A sharded vswitch cluster (:mod:`repro.cluster`) serves a
Zipf key stream while a :class:`~repro.faults.shard_plan.ShardFaultPlan`
kills shards on schedule; ``run_cluster(failover=True)`` marks each
shard that dies on every attempt as failed, re-steers the victim's RSS
indirection-table entries across survivors, and replays its flow
substream in a recovery round.

Swept axes: kill rate (nested kill sets — same per-shard draw compared
against a rising threshold), with fixed shard count, plus an admission-
policy pair measuring post-failover cold-cache refill.  PaperChecks pin
the contract:

* **no-fault parity** — ``failover=True`` with an empty fault plan
  matches a same-seed plain orchestrator run to rel 1e-12 (it is in
  fact bit-identical);
* **zero lost flows** — served lookups equal configured lookups at
  every kill rate, by construction of the re-steer + replay;
* **correlator beats LRU on refill** — Flow Correlator-style admission
  (PAPERS.md) filters one-hit wonders out of the survivors' cold
  caches, beating LRU's admit-everything refill miss rate;
* **bounded, monotone p99 degradation** — each victim is re-steered in
  its own detection epoch (``ClusterConfig.detection_cycles``) and its
  flows wait out every epoch up to their own, so merged p99 rises with
  kill rate (more victims, deeper tail) but never exceeds
  dead-shards × detection + one makespan;
* **same-seed determinism** — an identical chaos config replays
  bit-identically (kills, steering, merged percentiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ...cluster import ClusterConfig, run_cluster
from ...faults.shard_plan import ShardFaultPlan
from ..reporting import PaperCheck, format_table, render_checks

#: Per-shard kill draws under this seed (shards 1-3): 0.13 / 0.32 /
#: 0.64 — so the swept rates 0.2 / 0.4 / 0.7 kill 1, 2, then 3 of 4
#: shards, nested, and rate 0.2 kills exactly shard 1 of the 2-shard
#: cold-refill pair.  Shard 0 is protected (failover needs a survivor).
FAULT_SEED = 11


@dataclass
class ChaosPoint:
    """One chaos configuration's merged outcome (picklable payload)."""

    label: str
    shards: int
    kill_rate: float
    failover: bool
    cache_policy: Optional[str]
    total_lookups: int
    lost_flows: int
    failed_shards: int
    resteered_entries: int
    recovery_lookups: int
    p50_cycles: float
    p99_cycles: float
    makespan_cycles: float
    throughput_per_kcycle: float
    detection_cycles: float = 0.0
    #: Aggregate EMC miss rate over recovery-round (cold-cache) results.
    cold_miss_rate: float = 0.0
    #: Aggregate EMC miss rate over primary-round results.
    warm_miss_rate: float = 0.0
    #: Same-seed replay agreement (only measured by the determinism point).
    bit_identical: bool = True
    #: Max rel diff vs a same-seed plain (failover off) baseline — only
    #: measured by the parity point.  Same-seed matters: the bench
    #: scheduler derives a distinct seed per grid label, so comparing
    #: two labels would compare two different key streams.
    parity_rel: float = 0.0


def _miss_rate(results, degraded: bool) -> float:
    lookups = sum(r.cache.get("lookups", 0) for r in results
                  if r.cache and r.degraded == degraded)
    misses = sum(r.cache.get("misses", 0) for r in results
                 if r.cache and r.degraded == degraded)
    return misses / lookups if lookups else 0.0


def _config(params: Dict, seed: int) -> ClusterConfig:
    kill_rate = params.get("kill_rate", 0.0)
    plan = ShardFaultPlan.kills(kill_rate,
                                seed=params.get("fault_seed", FAULT_SEED))
    return ClusterConfig(
        shards=params.get("shards", 4),
        flows=params["flows"],
        lookups=params["lookups"],
        zipf_s=params.get("zipf_s", 1.1),
        # The scheduler derives a distinct seed per grid label; points
        # that form a controlled pair (the cold-refill policy A/B) pin
        # their stream seed so both sides serve the identical workload.
        seed=params.get("stream_seed", seed),
        retries=params.get("retries", 1),
        failover=params.get("failover", False),
        detection_cycles=params.get("detection_cycles"),
        shard_faults=plan.to_params() if plan else None,
        cache_policy=params.get("cache_policy"),
        cache_entries=params.get("cache_entries", 32),
    )


def run_point(label: str, params: Dict, seed: int = 1234) -> ChaosPoint:
    """Run one chaos configuration and flatten it into a point."""
    config = _config(params, seed)
    result = run_cluster(config)
    point = ChaosPoint(
        label=label,
        shards=config.shards,
        kill_rate=params.get("kill_rate", 0.0),
        failover=config.failover,
        cache_policy=config.cache_policy,
        total_lookups=result.total_lookups,
        lost_flows=result.lost_flows,
        failed_shards=len(result.failed_shards),
        resteered_entries=result.resteered_entries,
        recovery_lookups=result.recovery_lookups,
        p50_cycles=result.p50_cycles,
        p99_cycles=result.p99_cycles,
        makespan_cycles=result.makespan_cycles,
        throughput_per_kcycle=result.throughput_per_kcycle,
        detection_cycles=params.get("detection_cycles") or 0.0,
        cold_miss_rate=_miss_rate(result.shard_results, degraded=True),
        warm_miss_rate=_miss_rate(result.shard_results, degraded=False),
    )
    if params.get("parity"):
        baseline = run_cluster(_config(
            dict(params, failover=False, kill_rate=0.0), seed))

        def rel(a: float, b: float) -> float:
            return abs(a - b) / max(abs(a), abs(b), 1e-30)
        point.parity_rel = max(
            rel(result.p50_cycles, baseline.p50_cycles),
            rel(result.p99_cycles, baseline.p99_cycles),
            rel(result.makespan_cycles, baseline.makespan_cycles),
            rel(result.throughput_per_kcycle,
                baseline.throughput_per_kcycle),
            rel(result.total_lookups, baseline.total_lookups))
    if params.get("replay"):
        again = run_cluster(_config(params, seed))
        point.bit_identical = (
            again.p99_cycles == result.p99_cycles
            and again.p50_cycles == result.p50_cycles
            and again.makespan_cycles == result.makespan_cycles
            and again.failed_shards == result.failed_shards
            and again.resteered_entries == result.resteered_entries
            and again.total_lookups == result.total_lookups)
    return point


def run(quick: bool = False, seed: int = 1234) -> List[ChaosPoint]:
    return [run_point(label, quick_params if quick else full_params,
                      seed=seed)
            for label, full_params, quick_params in BENCH["grid"]]


def report(points: List[ChaosPoint]) -> str:
    by_label = {point.label: point for point in points}
    rows = [(point.label, f"{point.kill_rate:.1f}",
             point.failed_shards, point.resteered_entries,
             point.recovery_lookups, point.lost_flows,
             f"{point.p99_cycles:.0f}",
             f"{point.throughput_per_kcycle:.2f}",
             point.cache_policy or "-",
             f"{point.cold_miss_rate:.2f}" if point.cache_policy else "-")
            for point in points]
    table = format_table(
        ["config", "kill", "dead", "resteered", "recovered", "lost",
         "p99", "lookups/kcyc", "policy", "cold miss"],
        rows,
        title="Cluster chaos: shard kills, RSS failover, degraded serving")

    checks: List[PaperCheck] = []
    kill_00 = by_label.get("kill_00")
    if kill_00:
        checks.append(PaperCheck(
            "no-fault parity",
            "failover mode is free when nothing fails",
            f"max rel diff vs a same-seed plain orchestrator "
            f"{kill_00.parity_rel:.2e}",
            holds=kill_00.parity_rel <= 1e-12))
    kill_points = [by_label[name] for name
                   in ("kill_00", "kill_02", "kill_04", "kill_07")
                   if name in by_label]
    if kill_points:
        checks.append(PaperCheck(
            "zero lost flows",
            "re-steer + replay recovers every flow of every dead shard",
            f"lost flows {[p.lost_flows for p in kill_points]} across kill "
            f"rates {[p.kill_rate for p in kill_points]} "
            f"({[p.failed_shards for p in kill_points]} shard deaths)",
            holds=(all(p.lost_flows == 0 for p in kill_points)
                   and any(p.failed_shards > 0 for p in kill_points))))
        degradations = [p.p99_cycles for p in kill_points]
        bounded = all(
            p.p99_cycles <= (p.failed_shards * p.detection_cycles
                             + p.makespan_cycles)
            for p in kill_points)
        monotone = all(lo.p99_cycles <= hi.p99_cycles
                       for lo, hi in zip(kill_points, kill_points[1:]))
        checks.append(PaperCheck(
            "p99 degradation bounded and monotone",
            "recovered flows pay one detection epoch per dead shard, "
            "never more than that plus one makespan",
            f"p99 {[f'{d:.0f}' for d in degradations]} cycles across "
            f"rising kill rates",
            holds=bounded and monotone))
    lru = by_label.get("cold_lru")
    corr = by_label.get("cold_corr")
    if lru and corr:
        checks.append(PaperCheck(
            "correlator admission beats LRU on cold refill",
            "admission filtering protects survivors' caches during "
            "post-failover refill (Flow Correlator, PAPERS.md)",
            f"cold miss rate lru {lru.cold_miss_rate:.3f} vs correlator "
            f"{corr.cold_miss_rate:.3f}",
            holds=corr.cold_miss_rate < lru.cold_miss_rate))
    determinism = by_label.get("determinism")
    if determinism:
        checks.append(PaperCheck(
            "same-seed chaos replays bit-identically",
            "fault schedule, steering, and merged results are pure "
            "functions of the seed",
            f"replay agreement: {determinism.bit_identical}",
            holds=determinism.bit_identical))
    return table + "\n\n" + render_checks("cluster chaos", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

_FULL = {"flows": 256, "lookups": 1600, "detection_cycles": 49152.0,
         "cache_entries": 16}
_QUICK = {"flows": 64, "lookups": 320, "detection_cycles": 12288.0,
          "cache_entries": 16}

#: The cold-refill pair routes half the stream through a single
#: 2-shard kill so the recovery slice is long enough for admission
#: filtering to pay for its two-touch tax (the minimum EMC table is
#: 16 slots — 2 cuckoo buckets x 8 ways — so pressure needs enough
#: distinct keys, not a smaller ``cache_entries``).
_COLD_FULL = {"shards": 2, "kill_rate": 0.2, "failover": True,
              "flows": 256, "lookups": 1600, "stream_seed": 1234}
_COLD_QUICK = {"shards": 2, "kill_rate": 0.2, "failover": True,
               "flows": 192, "lookups": 960, "stream_seed": 1234}


def _point(**base):
    return dict(base, **_FULL), dict(base, **_QUICK)


def _cold_point(policy):
    return (dict(_FULL, **_COLD_FULL, cache_policy=policy),
            dict(_QUICK, **_COLD_QUICK, cache_policy=policy))


_GRID_POINTS = [
    ("plain", *_point()),
    ("kill_00", *_point(failover=True, kill_rate=0.0, parity=True)),
    ("kill_02", *_point(failover=True, kill_rate=0.2)),
    ("kill_04", *_point(failover=True, kill_rate=0.4)),
    ("kill_07", *_point(failover=True, kill_rate=0.7)),
    ("cold_lru", *_cold_point("lru")),
    ("cold_corr", *_cold_point("correlator")),
    ("determinism", *_point(failover=True, kill_rate=0.4, replay=True)),
]

BENCH = {
    "name": "cluster_chaos",
    "artifact": "§4.4 extension (cluster failover)",
    "slug": "cluster_chaos",
    "title": "cluster chaos: shard kills, RSS failover, degraded serving",
    "grid": _GRID_POINTS,
}


def bench_run(label, params, seed):
    """Runner hook: one grid point = one chaos configuration."""
    return run_point(label, params, seed=seed)


def bench_report(payloads):
    return report(list(payloads.values()))
