"""Sharded vswitch serving: N simulated switch instances behind RSS.

The paper stops at one socket; the scale-out question — when does adding
HALO-equipped sockets stop paying and sharding the flow table across
*separate* vswitch instances take over (§6's evaluation frame, extended)
— needs a cluster model.  This package provides it:

* :class:`~repro.cluster.balancer.RssBalancer` — a deterministic
  RSS-style flow-hash balancer (SplitMix64 over the packed 5-tuple into
  an indirection table) with greedy skew-triggered rebalancing, plus
  failover: ``fail_shard``/``restore_shard`` re-steer a dead shard's
  entries across survivors (minimal-move, epoch-logged).
* :func:`~repro.cluster.shards.run_shard` — one shard's simulation: a
  full :class:`~repro.core.halo_system.HaloSystem` on its own topology,
  serving exactly the keys it is handed.
* :func:`~repro.cluster.cluster.run_cluster` — the orchestrator: builds
  and routes a key stream, optionally rebalances, splits the stream by
  shard, runs every shard in the calling process, and merges the
  shards' latency histograms and ``repro.obs`` counters.  With
  ``failover=True`` a shard the scheduled kill set names is marked dead
  and its keys are replayed through the survivors — zero lost flows by
  construction.

Public contract: :class:`ClusterConfig` / :class:`ClusterResult` /
:func:`run_cluster`, :class:`RssBalancer` (hash determinism: same seed +
same key bytes → same shard, forever), and :func:`run_shard`'s
``(shard, keys, *, ...)`` signature with keyword-only options.  Layering: *nothing* below ``repro.analysis``
may import this package; experiments reach it, model code never does,
and it imports nothing from ``repro.runner``.
"""

from .balancer import RebalanceResult, RssBalancer, SteeringChange
from .cluster import ClusterConfig, ClusterResult, run_cluster
from .shards import ShardResult, run_shard

__all__ = [
    "ClusterConfig",
    "ClusterResult",
    "RebalanceResult",
    "RssBalancer",
    "ShardResult",
    "SteeringChange",
    "run_cluster",
    "run_shard",
]
