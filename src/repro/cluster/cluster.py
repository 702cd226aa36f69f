"""Cluster orchestration: route, rebalance, run shards, merge results.

:func:`run_cluster` is the scale-out counterpart of a single
:class:`~repro.core.halo_system.HaloSystem` run.  It derives the
cluster-wide key stream from a :class:`ClusterConfig`, routes it through
an :class:`~repro.cluster.balancer.RssBalancer`, optionally performs one
skew-triggered indirection-table rebalance, then splits the stream by
shard, keeping stream order, and runs every shard over its own keys as
an independent simulation, one after another, in the calling process.
Shards report simulated cycles, so the host process that runs them can
never change a number; running them in place is also the cheapest
dispatch at every size the campaign runs (docs/PERFORMANCE.md §1.7).

Aggregation merges the shards' fixed-bucket latency histograms (exact —
all shards share :data:`~repro.obs.metrics.DEFAULT_LATENCY_BUCKETS`),
sums lookup/hit counters, and models cluster throughput as total
lookups over the *slowest* shard's simulated cycles (shards run
concurrently on separate machines, so the straggler sets the pace).

Scheduled chaos (``ClusterConfig.shard_faults``, a
:class:`~repro.faults.shard_plan.ShardFaultPlan`) is a kill set:
``run_cluster`` asks the plan once per shard whether it is ``killed``,
and a killed shard never runs — a kill is permanent, so there is
nothing to retry.  Without failover a kill raises.  With failover
(``ClusterConfig.failover=True``) the killed shard is marked dead in the
balancer (``fail_shard`` re-steers its indirection-table entries across
survivors), and its keys are replayed through the survivors in a
*recovery round*; its latencies wait out one detection/re-steer epoch
per victim, up to and including its own.  Merged results mark the
degraded epochs; zero flows are lost by construction.

Public contract: :class:`ClusterConfig`, :class:`ClusterResult`, and
:func:`run_cluster` are stable API — ``repro.analysis`` experiments and
external harnesses build on them.  The way the stream is split across
shards may change without notice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..faults.shard_plan import ShardFaultPlan
from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.tracing import TraceRecorder
from .balancer import RebalanceResult, RssBalancer
from .shards import ShardResult, run_shard


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that defines one cluster run (frozen, hashable-ish)."""

    shards: int = 2
    sockets: int = 1
    flows: int = 256
    lookups: int = 2048
    zipf_s: float = 0.0
    backend: str = "software"
    #: Rewrite the indirection table before running when shard-load
    #: imbalance (``max/mean - 1``) exceeds ``rebalance_threshold``.
    rebalance: bool = False
    rebalance_threshold: float = 0.10
    table_capacity: int = 1 << 10
    table_size: int = 128
    seed: int = 1234
    #: Detect shard failures and re-steer + replay their flows through
    #: the survivors instead of aborting the run.
    failover: bool = False
    #: Simulated cycles one detection + re-steer epoch costs.  Victims
    #: are re-steered one epoch per failed shard (shard-id order); a
    #: victim's recovered flows pay every epoch up to and including
    #: their own.  ``None`` models reactive detection at the end of the
    #: primary round: one epoch = the surviving shards' makespan.
    detection_cycles: Optional[float] = None
    #: Scheduled shard kills; ``None`` = healthy cluster.
    shard_faults: Optional[ShardFaultPlan] = None
    #: Stream each shard's served keys through an EMC under this policy
    #: and report refill miss rates (``None`` = skip the measurement).
    cache_policy: Optional[str] = None
    cache_entries: int = 1024

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(
                f"ClusterConfig.shards must be >= 1 (got {self.shards})")
        if self.sockets < 1:
            raise ValueError(
                f"ClusterConfig.sockets must be >= 1 (got {self.sockets})")
        if self.flows < 1:
            raise ValueError(
                f"ClusterConfig.flows must be >= 1 (got {self.flows})")
        if self.lookups < 1:
            raise ValueError(
                f"ClusterConfig.lookups must be >= 1 (got {self.lookups})")
        if (self.detection_cycles is not None
                and not self.detection_cycles >= 0):
            raise ValueError(
                f"ClusterConfig.detection_cycles must be >= 0 or None "
                f"(got {self.detection_cycles})")
        if self.cache_entries < 1:
            raise ValueError(
                f"ClusterConfig.cache_entries must be >= 1 "
                f"(got {self.cache_entries})")
        if not (self.shard_faults is None
                or isinstance(self.shard_faults, ShardFaultPlan)):
            raise TypeError(
                f"ClusterConfig.shard_faults must be a ShardFaultPlan or "
                f"None (got {type(self.shard_faults).__name__})")


@dataclass
class ClusterResult:
    """Merged view of one cluster run."""

    config: ClusterConfig
    shard_results: List[ShardResult]
    loads_before: List[int] = field(default_factory=list)
    loads_after: List[int] = field(default_factory=list)
    imbalance_before: float = 0.0
    imbalance_after: float = 0.0
    rebalance_moves: int = 0
    rebalanced: bool = False
    total_lookups: int = 0
    total_found: int = 0
    p50_cycles: float = 0.0
    p99_cycles: float = 0.0
    mean_cycles: float = 0.0
    #: Total lookups / slowest shard's simulated cycles, × 1000.
    throughput_per_kcycle: float = 0.0
    #: Slowest shard's simulated cycles (the cluster's makespan).
    makespan_cycles: float = 0.0
    #: Largest shard's share of the stream (1/shards = perfectly even).
    max_shard_fraction: float = 0.0
    link_crossings: int = 0
    #: Shards the fault plan killed.
    failed_shards: List[int] = field(default_factory=list)
    #: Failed shard -> balancer epoch at which its entries were re-steered.
    degraded_epochs: Dict[int, int] = field(default_factory=dict)
    #: Configured lookups minus lookups actually served (0 under
    #: failover by construction; the `cluster_chaos` PaperCheck pins it).
    lost_flows: int = 0
    #: Indirection-table entries moved off dead shards.
    resteered_entries: int = 0
    #: Lookups replayed through survivors in recovery rounds.
    recovery_lookups: int = 0

    def merged_latency(self) -> Histogram:
        """Exact cross-shard latency distribution (fixed-bucket merge)."""
        merged = Histogram("cluster.latency")
        for shard_result in self.shard_results:
            merged = merged.merge(shard_result.latency)
        return merged


def run_cluster(config: ClusterConfig,
                metrics: Optional[MetricsRegistry] = None,
                trace: Optional[TraceRecorder] = None) -> ClusterResult:
    """Run the whole cluster and merge its shards' results.

    Deterministic end to end: the stream, the routing, the (optional)
    rebalance, any scheduled faults, and every shard simulation derive
    from ``config`` alone, so repeated calls agree exactly.
    ``metrics``/``trace`` opt into ``cluster.failover.*`` counters and
    ``failover.resteer`` spans; observation never feeds back into the
    model, so results are identical with or without them.
    """
    from ..traffic.generator import FlowSet, key_stream

    flow_set = FlowSet.generate(config.flows, seed=config.seed)
    keys = key_stream(flow_set, config.lookups, zipf_s=config.zipf_s,
                      seed=config.seed + 1)

    balancer = RssBalancer(config.shards, table_size=config.table_size,
                           seed=config.seed, metrics=metrics, trace=trace)
    loads_before = balancer.shard_loads(keys)
    total = sum(loads_before)
    mean = total / config.shards if config.shards else 0.0
    imbalance_before = (max(loads_before) / mean - 1.0) if mean else 0.0

    rebalance_result: Optional[RebalanceResult] = None
    if (config.rebalance and config.shards > 1
            and imbalance_before > config.rebalance_threshold):
        rebalance_result = balancer.rebalance(keys)

    loads_after = balancer.shard_loads(keys)
    imbalance_after = (max(loads_after) / mean - 1.0) if mean else 0.0

    # Split the stream once, keeping stream order: each shard's keys.
    routed: List[List[bytes]] = [[] for _ in range(config.shards)]
    for key in keys:
        routed[balancer.shard_of(key)].append(key)

    def serve(shard: int, shard_keys: List[bytes], **recovery) -> ShardResult:
        return run_shard(shard, shard_keys, sockets=config.sockets,
                         backend=config.backend,
                         table_capacity=config.table_capacity,
                         cache_policy=config.cache_policy,
                         cache_entries=config.cache_entries, **recovery)

    plan = config.shard_faults
    shard_results: List[ShardResult] = []
    failed: List[int] = []
    for shard in range(config.shards):
        if plan is not None and plan.killed(shard):
            failed.append(shard)
            if not config.failover:
                raise RuntimeError(
                    f"shard {shard} failed (crash: scheduled kill) and "
                    f"failover is disabled")
            continue
        shard_results.append(serve(shard, routed[shard]))

    # -- failover: re-steer dead shards' entries, replay their flows ------
    degraded_epochs: Dict[int, int] = {}
    resteered = 0
    recovery_lookups = 0
    if failed:
        pre_table = list(balancer.table)
        victim_rank: Dict[int, int] = {}
        for rank, shard in enumerate(sorted(failed), start=1):
            change = balancer.fail_shard(shard)
            degraded_epochs[shard] = change.epoch
            victim_rank[shard] = rank
            resteered += len(change.moves)
        failed_set = set(failed)
        # Detection + re-steer happens one epoch per victim, in shard-id
        # order; a victim's flows wait out every epoch up to and
        # including its own.  One interval is the configured constant (a
        # supervision timeout in simulated cycles) or, reactively, the
        # primary round's surviving makespan.
        if config.detection_cycles is not None:
            detection = config.detection_cycles
        else:
            detection = max(
                (r.elapsed_cycles for r in shard_results), default=0.0)
        groups: Dict[Any, Set[int]] = {}
        for entry, owner in enumerate(pre_table):
            if owner in failed_set:
                groups.setdefault((owner, balancer.table[entry]),
                                  set()).add(entry)
        # Each survivor replays, un-faulted, the victim's keys that hash
        # to the entries it inherited.
        recovery_results = [
            serve(survivor,
                  [key for key in routed[victim]
                   if balancer.entry_of(key) in groups[(victim, survivor)]],
                  latency_offset=victim_rank[victim] * detection,
                  degraded=True)
            for victim, survivor in sorted(groups)]
        recovery_lookups = sum(r.lookups for r in recovery_results)
        shard_results.extend(recovery_results)
        if metrics is not None:
            metrics.counter("cluster.failover.recovery_rounds").inc()
            metrics.counter(
                "cluster.failover.recovered_flows").inc(recovery_lookups)

    result = ClusterResult(
        config=config, shard_results=shard_results,
        loads_before=loads_before, loads_after=loads_after,
        imbalance_before=imbalance_before, imbalance_after=imbalance_after,
        rebalance_moves=len(rebalance_result.moves) if rebalance_result
        else 0,
        rebalanced=rebalance_result is not None,
        failed_shards=sorted(failed), degraded_epochs=degraded_epochs,
        resteered_entries=resteered, recovery_lookups=recovery_lookups)

    merged = result.merged_latency()
    result.total_lookups = sum(r.lookups for r in shard_results)
    result.total_found = sum(r.found for r in shard_results)
    result.makespan_cycles = max(
        (r.elapsed_cycles for r in shard_results), default=0.0)
    if result.makespan_cycles:
        result.throughput_per_kcycle = (
            result.total_lookups / result.makespan_cycles * 1000.0)
    if merged.count:
        result.p50_cycles = merged.p50
        result.p99_cycles = merged.p99
        result.mean_cycles = merged.mean
    if result.total_lookups:
        result.max_shard_fraction = (
            max(r.lookups for r in shard_results) / result.total_lookups)
    result.link_crossings = int(sum(r.mem.get("link_crossings", 0)
                                    for r in shard_results))
    result.lost_flows = config.lookups - result.total_lookups
    return result
