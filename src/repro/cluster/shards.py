"""One vswitch shard's simulation, a pure function of its params dict.

A shard is a complete :class:`~repro.core.halo_system.HaloSystem` — its
own engine, memory hierarchy, accelerators — serving exactly the subset
of a cluster-wide key stream that the RSS balancer routed to it.  The
whole workload definition is a small ``params`` dict (stream seeds + the
balancer's indirection table), and the shard re-derives its key subset
deterministically; key lists are never handed over, mirroring how a NIC
filters by hash in hardware.

On a multi-socket shard machine the stream splits round-robin over one
pinned core per socket (:class:`~repro.exec.cores.CoreWorkload` with
``socket=``), so per-socket-HALO scaling is exercised inside a shard.

Failover hooks (all optional ``params`` keys, absent in the healthy
path so pre-failover results are bit-identical):

* ``serve_entries`` — serve only keys hashing to these indirection-table
  entries instead of ``shard_of(key) == shard``; how a survivor replays
  exactly the re-steered slice of a dead shard's traffic in a recovery
  round;
* ``latency_offset`` — extra cycles added to every observed latency,
  modelling the detection + re-steer delay a recovered flow experienced;
* ``shard_faults`` + ``attempt`` — a serialised
  :class:`~repro.faults.shard_plan.ShardFaultPlan` and the attempt
  number :func:`~repro.cluster.cluster.run_cluster` survived to; that
  attempt's straggler decision slows every lookup.  The orchestrator
  resolves kill decisions before calling the shard, so a kill decision
  here is a caller error and raises;
* ``cache_policy``/``cache_entries`` — stream the served keys through an
  :class:`~repro.classifier.emc.ExactMatchCache` under the named policy
  and report the cold-start miss rate (the post-failover refill signal
  ``cluster_chaos`` compares across admission policies).

Public contract: :func:`run_shard`'s ``(params)`` signature and
:class:`ShardResult`'s fields are stable — the cluster orchestrator and
any harness that runs one shard on its own depend on them not drifting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..obs.metrics import DEFAULT_LATENCY_BUCKETS, Histogram


@dataclass
class ShardResult:
    """What one shard did."""

    shard: int
    lookups: int
    found: int
    distinct_flows: int
    elapsed_cycles: float
    #: Exported latency histogram state (fixed bounds — merges exactly).
    latency: Dict[str, Any] = field(default_factory=dict)
    #: Selected memory-system counters pulled from ``repro.obs``.
    mem: Dict[str, float] = field(default_factory=dict)
    #: True when this result came from a recovery round (the keys were
    #: re-steered here after their home shard failed).
    degraded: bool = False
    #: Extra per-lookup cycles a straggler fault imposed (0 = healthy).
    straggle_cycles: float = 0.0
    #: Cache-refill measurement (policy, lookups, misses, miss_rate) when
    #: ``cache_policy`` was requested; empty otherwise.
    cache: Dict[str, Any] = field(default_factory=dict)

    @property
    def throughput_per_kcycle(self) -> float:
        if not self.elapsed_cycles:
            return 0.0
        return self.lookups / self.elapsed_cycles * 1000.0

    def latency_histogram(self) -> Histogram:
        """Rehydrate the exported histogram (for merging/percentiles)."""
        hist = Histogram("cluster.shard.latency",
                         bounds=self.latency.get("bounds",
                                                 DEFAULT_LATENCY_BUCKETS))
        hist.bucket_counts = list(self.latency.get("bucket_counts",
                                                   hist.bucket_counts))
        hist.overflow = self.latency.get("overflow", 0)
        hist.count = self.latency.get("count", 0)
        hist.sum = self.latency.get("sum", 0.0)
        if hist.count:
            hist.min = self.latency.get("min", 0.0)
            hist.max = self.latency.get("max", 0.0)
        return hist


def _export_histogram(hist: Histogram) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "bounds": list(hist.bounds),
        "bucket_counts": list(hist.bucket_counts),
        "overflow": hist.overflow,
        "count": hist.count,
        "sum": hist.sum,
    }
    if hist.count:
        out["min"] = hist.min
        out["max"] = hist.max
    return out


def shard_machine(sockets: int):
    """The shard's simulated machine: the paper's socket, scaled out."""
    from ..sim.params import SKYLAKE_SP_16C

    if sockets == 1:
        return SKYLAKE_SP_16C
    return SKYLAKE_SP_16C.scale_out(sockets)


def run_shard(params: Dict[str, Any]) -> ShardResult:
    """Run one shard end to end.

    ``params`` carries the full cluster workload definition — flow
    count, lookup count, Zipf skew, stream seeds, shard geometry, and
    the balancer's (possibly rebalanced) indirection table — so this
    function is a pure function of ``params``.
    """
    from ..core.halo_system import HaloSystem
    from ..exec.cores import CoreWorkload
    from ..faults.shard_plan import ShardFaultPlan
    from .balancer import RssBalancer
    from ..traffic.generator import FlowSet, key_stream

    shard = params["shard"]
    shards = params["shards"]
    sockets = params.get("sockets", 1)
    backend = params.get("backend", "software")
    flow_seed = params["flow_seed"]
    stream_seed = params["stream_seed"]

    # Realise the scheduled straggler fault of the attempt the
    # orchestrator survived to (it resolves kills before calling here).
    straggle = 0.0
    attempt = params.get("attempt")
    if params.get("shard_faults") and attempt is not None:
        plan = ShardFaultPlan.from_params(params["shard_faults"])
        decision = plan.decide(shard, attempt)
        if decision.kill:
            raise RuntimeError(
                f"shard {shard} is scheduled to die on attempt {attempt}; "
                f"run_cluster resolves kills before calling run_shard")
        straggle = decision.straggle_cycles

    flow_set = FlowSet.generate(params["flows"], seed=flow_seed)
    keys = key_stream(flow_set, params["lookups"],
                      zipf_s=params.get("zipf_s", 0.0), seed=stream_seed)
    balancer = RssBalancer(shards,
                           table_size=params.get("table_size", 128),
                           seed=params.get("balancer_seed", 0))
    if params.get("assignments") is not None:
        balancer.install(params["assignments"])
    serve_entries = params.get("serve_entries")
    if serve_entries is not None:
        wanted = set(serve_entries)
        mine = [key for key in keys if balancer.entry_of(key) in wanted]
    else:
        mine = [key for key in keys if balancer.shard_of(key) == shard]
    distinct = sorted(set(mine))
    degraded = serve_entries is not None
    extra_cycles = float(params.get("latency_offset", 0.0)) + straggle

    machine = shard_machine(sockets)
    system = HaloSystem(machine=machine, observability=True)
    table = system.create_table(params.get("table_capacity", 1 << 10),
                                name=f"shard{shard}")
    for index, key in enumerate(distinct):
        table.insert(key, index)
    system.warm_table(table)

    hist = Histogram("cluster.shard.latency")
    if not mine:
        return ShardResult(shard=shard, lookups=0, found=0,
                           distinct_flows=0, elapsed_cycles=0.0,
                           latency=_export_histogram(hist),
                           degraded=degraded, straggle_cycles=straggle)

    # One PMD core per socket, pinned socket-locally; the stream splits
    # round-robin so every socket serves an equal slice.
    lanes: List[List[bytes]] = [[] for _ in range(sockets)]
    for index, key in enumerate(mine):
        lanes[index % sockets].append(key)
    workloads = [
        CoreWorkload(backend=backend, core_id=0, socket=lane,
                     table=table, keys=lane_keys,
                     name=f"shard{shard}.s{lane}")
        for lane, lane_keys in enumerate(lanes) if lane_keys
    ]
    for workload in workloads:
        system.hierarchy.flush_private(
            machine.topo.core_on(workload.socket, 0))
    run = system.run_cores(workloads)

    found = 0
    for result in run.results:
        for outcome in result.result:
            # extra_cycles is 0.0 on the healthy path, so the addition is
            # exact and pre-failover latencies stay bit-identical.
            hist.observe(outcome.cycles + extra_cycles)
            if outcome.found:
                found += 1

    cache_info: Dict[str, Any] = {}
    cache_policy = params.get("cache_policy")
    if cache_policy:
        from ..classifier.emc import ExactMatchCache
        emc = ExactMatchCache(params.get("cache_entries", 1024),
                              policy=cache_policy,
                              seed=params.get("cache_seed", 0xE3C),
                              name=f"shard{shard}.emc")
        misses = 0
        for index, key in enumerate(mine):
            if emc.lookup_key(key) is None:
                misses += 1
                emc.install_key(key, index)
        cache_info = {"policy": cache_policy, "lookups": len(mine),
                      "misses": misses, "miss_rate": misses / len(mine)}

    snapshot = system.obs.metrics.snapshot()  # flat dotted-key scalars
    mem = {
        "l1_accesses": snapshot.get("mem.l1d.accesses", 0),
        "l1_misses": snapshot.get("mem.l1d.misses", 0),
        "llc_accesses": snapshot.get("mem.llc.accesses", 0),
        "llc_misses": snapshot.get("mem.llc.misses", 0),
        "dram_accesses": (snapshot.get("mem.dram.reads", 0)
                          + snapshot.get("mem.dram.writes", 0)),
        "link_crossings": snapshot.get("mem.interconnect.link_crossings", 0),
    }
    return ShardResult(shard=shard, lookups=len(mine), found=found,
                       distinct_flows=len(distinct),
                       elapsed_cycles=run.elapsed,
                       latency=_export_histogram(hist), mem=mem,
                       degraded=degraded, straggle_cycles=straggle,
                       cache=cache_info)
