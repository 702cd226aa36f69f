"""One vswitch shard's simulation: the keys it serves, on its own machine.

A shard is a complete :class:`~repro.core.halo_system.HaloSystem` — its
own engine, memory hierarchy, accelerators — serving exactly the keys
the RSS balancer routed to it, in stream order.
:func:`~repro.cluster.cluster.run_cluster` builds the cluster-wide key
stream once, splits it with its balancer and hands each shard its own
slice; the shard never sees the rest of the stream.

On a multi-socket shard machine the stream splits round-robin over one
pinned core per socket (:class:`~repro.exec.cores.CoreWorkload` with
``socket=``), so per-socket-HALO scaling is exercised inside a shard.

The machine and table arguments (``sockets``, ``backend``,
``table_capacity``, ``cache_policy``, ``cache_entries``) are required:
their defaults live on :class:`~repro.cluster.cluster.ClusterConfig`
alone.  ``cache_policy`` names an
:class:`~repro.classifier.emc.ExactMatchCache` admission policy to
stream the served keys through, reporting the cold-start miss rate (the
post-failover refill signal ``cluster_chaos`` compares across
policies); ``None`` skips it.  A shard knows nothing of faults:
:func:`~repro.cluster.cluster.run_cluster` resolves the kill set before
calling it, and a killed shard never runs.  Failover arrives as two
keyword arguments defaulting to the primary round:

* ``latency_offset`` — extra cycles added to every observed latency,
  modelling the detection + re-steer delay a recovered flow experienced;
* ``degraded`` — marks a recovery-round result (the keys were
  re-steered here after their home shard failed).

Public contract: :func:`run_shard`'s ``(shard, keys, *, sockets,
backend, table_capacity, latency_offset, degraded, cache_policy,
cache_entries)`` signature and :class:`ShardResult`'s fields are
stable — the cluster orchestrator and any harness that runs one shard
on its own depend on them not drifting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..obs.metrics import Histogram


@dataclass
class ShardResult:
    """What one shard did."""

    shard: int
    lookups: int
    found: int
    distinct_flows: int
    elapsed_cycles: float
    #: Per-lookup latency (fixed default bounds — merges exactly).
    latency: Histogram = field(
        default_factory=lambda: Histogram("cluster.shard.latency"))
    #: Selected memory-system counters pulled from ``repro.obs``.
    mem: Dict[str, float] = field(default_factory=dict)
    #: True when this result came from a recovery round (the keys were
    #: re-steered here after their home shard failed).
    degraded: bool = False
    #: Cache-refill measurement (policy, lookups, misses, miss_rate) when
    #: ``cache_policy`` was requested; empty otherwise.
    cache: Dict[str, Any] = field(default_factory=dict)

    @property
    def throughput_per_kcycle(self) -> float:
        if not self.elapsed_cycles:
            return 0.0
        return self.lookups / self.elapsed_cycles * 1000.0


def shard_machine(sockets: int):
    """The shard's simulated machine: the paper's socket, scaled out."""
    from ..sim.params import SKYLAKE_SP_16C

    if sockets == 1:
        return SKYLAKE_SP_16C
    return SKYLAKE_SP_16C.scale_out(sockets)


def run_shard(shard: int, keys: Sequence[bytes], *, sockets: int,
              backend: str, table_capacity: int,
              latency_offset: float = 0.0, degraded: bool = False,
              cache_policy: Optional[str],
              cache_entries: int) -> ShardResult:
    """Run one shard end to end over ``keys``, in the order given.

    The shard inserts every distinct key into its own table, warms it,
    and serves ``keys`` on one pinned core per socket.  Deterministic:
    the same arguments give the same result.
    """
    from ..core.halo_system import HaloSystem
    from ..exec.cores import CoreWorkload

    if not keys:
        return ShardResult(shard=shard, lookups=0, found=0,
                           distinct_flows=0, elapsed_cycles=0.0,
                           degraded=degraded)

    distinct = sorted(set(keys))
    extra_cycles = float(latency_offset)

    machine = shard_machine(sockets)
    system = HaloSystem(machine=machine, observability=True)
    table = system.create_table(table_capacity, name=f"shard{shard}")
    for index, key in enumerate(distinct):
        table.insert(key, index)
    system.warm_table(table)

    # One PMD core per socket, pinned socket-locally; the stream splits
    # round-robin so every socket serves an equal slice.
    lanes: List[List[bytes]] = [[] for _ in range(sockets)]
    for index, key in enumerate(keys):
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

    hist = Histogram("cluster.shard.latency")
    found = 0
    for result in run.results:
        for outcome in result.result:
            # extra_cycles is 0.0 on the healthy path, so the addition is
            # exact and pre-failover latencies stay bit-identical.
            hist.observe(outcome.cycles + extra_cycles)
            if outcome.found:
                found += 1

    cache_info: Dict[str, Any] = {}
    if cache_policy:
        from ..classifier.emc import ExactMatchCache
        emc = ExactMatchCache(cache_entries, policy=cache_policy,
                              name=f"shard{shard}.emc")
        misses = 0
        for index, key in enumerate(keys):
            if emc.lookup_key(key) is None:
                misses += 1
                emc.install_key(key, index)
        cache_info = {"policy": cache_policy, "lookups": len(keys),
                      "misses": misses, "miss_rate": misses / len(keys)}

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
    return ShardResult(shard=shard, lookups=len(keys), found=found,
                       distinct_flows=len(distinct),
                       elapsed_cycles=run.elapsed, latency=hist, mem=mem,
                       degraded=degraded, cache=cache_info)
