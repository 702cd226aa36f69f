"""Cluster-level fault schedules: which shards die.

:class:`~repro.faults.plan.FaultPlan` speaks the language of one socket —
cycles, slices, DRAM.  The ``repro.cluster`` layer needs a coarser
vocabulary: *shard 3 is dead*.  :class:`ShardFaultPlan` is that
schedule — pure data, a seeded kill set that ``run_cluster`` consults
once per shard through :meth:`~ShardFaultPlan.killed`.  A kill is
permanent, so the same seed kills the same shards on every run.
``ClusterConfig.shard_faults`` holds the plan object itself.

Determinism and monotonicity are load-bearing:

* each shard's fate is a single :class:`SplitMix64` draw forked by
  shard — independent of the rate being tested — so the set of killed
  shards at rate *x* is a subset of the set at *y > x*
  (``cluster_chaos`` asserts lost-flow and p99 monotonicity on top of
  this);
* ``protected`` shards are never killed, so a plan can guarantee at least
  one survivor for failover to re-steer onto.

Malformed input fails at construction, naming the class and the field:
a ``kill_rate`` outside [0, 1] (NaN included), a negative ``protected``
shard id.

Public contract: :class:`ShardFaultPlan` — its ``(kill_rate, seed,
protected)`` fields, ``killed``'s pure-function determinism, the
subset-nesting guarantee and the construction-time validation
described above — is stable API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .plan import SplitMix64


@dataclass(frozen=True)
class ShardFaultPlan:
    """An immutable shard kill set: each unprotected shard dies when its
    seeded draw falls below ``kill_rate``."""

    kill_rate: float = 0.0
    seed: int = 0x5AD0
    protected: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if not 0.0 <= self.kill_rate <= 1.0:  # also rejects NaN
            raise ValueError(
                f"ShardFaultPlan.kill_rate {self.kill_rate} outside [0, 1]")
        if not isinstance(self.protected, tuple):
            object.__setattr__(self, "protected", tuple(self.protected))
        negative = [shard for shard in self.protected if shard < 0]
        if negative:
            raise ValueError(
                f"ShardFaultPlan.protected must hold shard ids >= 0 "
                f"(got {negative})")

    def killed(self, shard: int) -> bool:
        """Does ``shard`` die?  A pure function of (plan, shard)."""
        if shard in self.protected:
            return False
        # One draw per shard, forked so evaluation order is irrelevant
        # and the draw is independent of the rate (nesting).
        draw = SplitMix64(self.seed).fork(1).fork(shard + 1).uniform()
        return draw < self.kill_rate
