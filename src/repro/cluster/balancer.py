"""Deterministic RSS flow-hash balancer with rebalancing and failover.

Models the NIC receive-side-scaling stage in front of a sharded vswitch
cluster: a stateless hash of the packed 5-tuple indexes a small
*indirection table* whose entries name shards.  Uniform traffic spreads
evenly by construction; skewed (Zipf) traffic piles hot flows onto a few
entries, and :meth:`RssBalancer.rebalance` migrates the hottest entries
off the most-loaded shard exactly the way an RSS indirection-table
rewrite does in hardware — flows move in entry-sized groups, never
individually, and the hash itself never changes.

The same table rewrite is the cluster's failover mechanism.
:meth:`RssBalancer.fail_shard` re-steers every entry routed to a dead
shard across the healthy survivors (fewest-entries-first, lowest id on
ties — deterministic), and :meth:`RssBalancer.restore_shard` is
*minimal-move* by construction: each entry's ``home`` shard is tracked
across deliberate rewrites (``install``/``rebalance``) but not across
failover, so restoring a shard moves back exactly the entries it owned
before it died and nothing else.  Every steering change — install,
rebalance, fail, restore — increments a monotone ``epoch`` and appends a
:class:`SteeringChange` record, which is how ``run_cluster`` marks which
merged results were served degraded.

Determinism is the point: the same ``(seed, key bytes)`` pair maps to
the same entry on every run, every process, every platform (SplitMix64
is exact 64-bit arithmetic), so each shard re-derives its own key
subset from the stream definition instead of being handed a key list.

Public contract: :class:`RssBalancer` (the pinned ``entry_of`` hash, the
install/rebalance validation behaviour, ``fail_shard``/``restore_shard``
determinism and the minimal-move restore guarantee, and the
``epoch``/``steering_log`` bookkeeping), :class:`RebalanceResult`, and
:class:`SteeringChange` are stable API.  Observability is opt-in: pass
``metrics``/``trace`` to get ``cluster.failover.*`` counters and
``failover.resteer`` spans; omitted, failover runs unobserved with
identical steering decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.tracing import TraceRecorder
from ..sim.interconnect import mix64


@dataclass
class RebalanceResult:
    """What one rebalancing pass did."""

    moves: List[tuple] = field(default_factory=list)  # (entry, from, to)
    max_load_before: int = 0
    max_load_after: int = 0
    loads_before: List[int] = field(default_factory=list)
    loads_after: List[int] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return self.max_load_after < self.max_load_before


@dataclass(frozen=True)
class SteeringChange:
    """One epoch of indirection-table rewriting: why, what moved."""

    epoch: int
    kind: str                              # install | rebalance | fail | restore
    shard: Optional[int]                   # the failed/restored shard, if any
    moves: Tuple[Tuple[int, int, int], ...]  # (entry, from, to)


class RssBalancer:
    """RSS-style flow→shard mapping through an indirection table.

    ``table_size`` entries (hardware uses 128 or 512) are initialised
    round-robin over ``shards``; :meth:`entry_of` hashes a packed key to
    an entry, :meth:`shard_of` follows the table.  Rebalancing and
    failover rewrite table entries only — the deterministic hash is
    immutable.
    """

    def __init__(self, shards: int, table_size: int = 128,
                 seed: int = 0,
                 metrics: Optional[MetricsRegistry] = None,
                 trace: Optional[TraceRecorder] = None) -> None:
        if shards < 1:
            raise ValueError(f"RssBalancer needs >= 1 shard (got {shards})")
        if table_size < shards:
            raise ValueError(
                f"indirection table of {table_size} entries cannot cover "
                f"{shards} shards; use table_size >= shards")
        self.shards = shards
        self.table_size = table_size
        self.seed = seed
        self.table: List[int] = [i % shards for i in range(table_size)]
        self._salt = mix64(seed ^ 0x9E3779B97F4A7C15)
        # Failover bookkeeping.  ``home`` is each entry's deliberate
        # assignment (updated by install/rebalance, *not* by failover);
        # ``health`` marks which shards currently serve; ``epoch`` counts
        # steering changes and ``steering_log`` records each one.
        self.home: List[int] = list(self.table)
        self.health: List[bool] = [True] * shards
        self.epoch: int = 0
        self.steering_log: List[SteeringChange] = []
        self._metrics = metrics
        self._trace = trace

    # -- hashing ---------------------------------------------------------------
    def entry_of(self, key: bytes) -> int:
        """Indirection-table entry for a packed key (pure, stateless)."""
        value = self._salt
        for offset in range(0, len(key), 8):
            word = int.from_bytes(key[offset:offset + 8], "little")
            value = mix64(value ^ word)
        return value % self.table_size

    def shard_of(self, key: bytes) -> int:
        """The shard currently serving a key."""
        return self.table[self.entry_of(key)]

    def install(self, table: Sequence[int]) -> None:
        """Adopt a previously computed indirection table.

        Validates shape and content before touching any state: a bad
        table raises and leaves the current steering untouched rather
        than silently mis-steering flows."""
        if len(table) != self.table_size:
            raise ValueError(
                f"indirection table length {len(table)} != configured "
                f"table_size {self.table_size}")
        for entry, shard in enumerate(table):
            if isinstance(shard, bool) or not isinstance(shard, int):
                raise ValueError(
                    f"entry {entry} is {shard!r} ({type(shard).__name__}); "
                    f"indirection entries must be shard ids (int)")
            if not 0 <= shard < self.shards:
                raise ValueError(
                    f"entry {entry} routes to shard {shard}, outside "
                    f"0..{self.shards - 1}")
            if not self.health[shard]:
                raise ValueError(
                    f"entry {entry} routes to shard {shard}, which is "
                    f"marked failed; restore it first or re-steer the "
                    f"table around it")
        moves = tuple((entry, old, new) for entry, (old, new)
                      in enumerate(zip(self.table, table)) if old != new)
        self.table = list(table)
        self.home = list(table)
        self._log_change("install", None, moves)

    # -- health ----------------------------------------------------------------
    @property
    def healthy_shards(self) -> List[int]:
        """Shard ids currently marked healthy (serving)."""
        return [s for s in range(self.shards) if self.health[s]]

    @property
    def failed_shards(self) -> List[int]:
        """Shard ids currently marked failed."""
        return [s for s in range(self.shards) if not self.health[s]]

    def fail_shard(self, shard: int) -> SteeringChange:
        """Mark ``shard`` dead and re-steer its entries across survivors.

        Deterministic: entries are visited in index order and each goes
        to the survivor currently holding the fewest entries (lowest id
        on ties), so the post-failover table is a pure function of the
        failure sequence.  ``home`` is left untouched — failover steering
        is temporary by definition, which is what makes
        :meth:`restore_shard` minimal-move.
        """
        self._check_shard_id(shard)
        if not self.health[shard]:
            raise ValueError(f"shard {shard} is already marked failed")
        survivors = [s for s in self.healthy_shards if s != shard]
        if not survivors:
            raise ValueError(
                f"cannot fail shard {shard}: it is the last healthy shard "
                f"and failover needs at least one survivor")
        self.health[shard] = False
        counts = {s: 0 for s in survivors}
        for target in self.table:
            if target in counts:
                counts[target] += 1
        moves = []
        for entry in range(self.table_size):
            if self.table[entry] != shard:
                continue
            receiver = min(survivors, key=lambda s: (counts[s], s))
            self.table[entry] = receiver
            counts[receiver] += 1
            moves.append((entry, shard, receiver))
        change = self._log_change("fail", shard, tuple(moves))
        if self._metrics is not None:
            self._metrics.counter("cluster.failover.fail_events").inc()
            self._metrics.counter(
                "cluster.failover.resteered_entries").inc(len(moves))
            self._metrics.gauge("cluster.failover.unhealthy_shards").set(
                len(self.failed_shards))
        return change

    def restore_shard(self, shard: int) -> SteeringChange:
        """Bring a failed shard back and return exactly its home entries.

        Minimal-move: only entries whose ``home`` is ``shard`` (and that
        failover parked elsewhere) move; entries that never belonged to
        the shard stay where they are, preserving cache warmth on the
        survivors.
        """
        self._check_shard_id(shard)
        if self.health[shard]:
            raise ValueError(f"shard {shard} is not marked failed")
        self.health[shard] = True
        moves = []
        for entry in range(self.table_size):
            if self.home[entry] == shard and self.table[entry] != shard:
                moves.append((entry, self.table[entry], shard))
                self.table[entry] = shard
        change = self._log_change("restore", shard, tuple(moves))
        if self._metrics is not None:
            self._metrics.counter("cluster.failover.restore_events").inc()
            self._metrics.counter(
                "cluster.failover.resteered_entries").inc(len(moves))
            self._metrics.gauge("cluster.failover.unhealthy_shards").set(
                len(self.failed_shards))
        return change

    def _check_shard_id(self, shard: int) -> None:
        if isinstance(shard, bool) or not isinstance(shard, int):
            raise ValueError(f"shard id must be an int, got {shard!r}")
        if not 0 <= shard < self.shards:
            raise ValueError(
                f"shard {shard} outside 0..{self.shards - 1}")

    def _log_change(self, kind: str, shard: Optional[int],
                    moves: Tuple[Tuple[int, int, int], ...]) -> SteeringChange:
        self.epoch += 1
        change = SteeringChange(epoch=self.epoch, kind=kind, shard=shard,
                                moves=moves)
        self.steering_log.append(change)
        if self._trace is not None and kind in ("fail", "restore"):
            span = self._trace.root("failover.resteer",
                                    float(self.epoch - 1), kind=kind,
                                    shard=shard, entries=len(moves))
            span.finish(float(self.epoch))
        return change

    # -- load accounting -------------------------------------------------------
    def entry_loads(self, keys: Iterable[bytes]) -> List[int]:
        """Per-indirection-entry key counts for a stream."""
        loads = [0] * self.table_size
        entry_of = self.entry_of
        # Identical byte strings hash identically: memoise per distinct key.
        memo: Dict[bytes, int] = {}
        for key in keys:
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = entry_of(key)
            loads[entry] += 1
        return loads

    def shard_loads(self, keys: Iterable[bytes]) -> List[int]:
        """Per-shard key counts for a stream under the current table."""
        entry_loads = self.entry_loads(keys)
        loads = [0] * self.shards
        for entry, load in enumerate(entry_loads):
            loads[self.table[entry]] += load
        return loads

    def imbalance(self, keys: Iterable[bytes]) -> float:
        """``max/mean - 1`` of shard loads (0 = perfectly even)."""
        loads = self.shard_loads(keys)
        total = sum(loads)
        if not total:
            return 0.0
        mean = total / self.shards
        return max(loads) / mean - 1.0

    # -- rebalancing -----------------------------------------------------------
    def rebalance(self, keys: Iterable[bytes],
                  max_moves: int = 1024) -> RebalanceResult:
        """Greedy indirection-table rewrite to shrink the hottest shard.

        Repeatedly moves the heaviest movable entry from the currently
        most-loaded shard to the least-loaded one, accepting only moves
        that keep the receiver strictly below the donor's pre-move load
        (so the global maximum never increases, and strictly decreases
        whenever any move is possible).  Deterministic: ties break on the
        lowest entry/shard index.  Failed shards are excluded from both
        donor and receiver roles; moves update each entry's ``home``
        (rebalancing is a deliberate re-steer, unlike failover).
        """
        if max_moves < 0:
            raise ValueError(f"max_moves must be >= 0 (got {max_moves})")
        candidates_pool = self.healthy_shards
        entry_loads = self.entry_loads(keys)
        loads = [0] * self.shards
        for entry, load in enumerate(entry_loads):
            loads[self.table[entry]] += load
        result = RebalanceResult(max_load_before=max(loads),
                                 loads_before=list(loads))
        by_shard: List[List[int]] = [[] for _ in range(self.shards)]
        for entry in range(self.table_size):
            by_shard[self.table[entry]].append(entry)

        for _ in range(max_moves):
            donor = max(candidates_pool, key=lambda s: (loads[s], -s))
            receiver = min(candidates_pool, key=lambda s: (loads[s], s))
            if donor == receiver:
                break
            # Heaviest entry the receiver can absorb while staying
            # strictly under the donor's current load.
            candidates = [entry for entry in by_shard[donor]
                          if entry_loads[entry] > 0
                          and loads[receiver] + entry_loads[entry]
                          < loads[donor]]
            if not candidates:
                break
            entry = max(candidates,
                        key=lambda e: (entry_loads[e], -e))
            weight = entry_loads[entry]
            self.table[entry] = receiver
            self.home[entry] = receiver
            by_shard[donor].remove(entry)
            by_shard[receiver].append(entry)
            loads[donor] -= weight
            loads[receiver] += weight
            result.moves.append((entry, donor, receiver))

        if result.moves:
            self._log_change("rebalance", None,
                             tuple((e, f, t) for e, f, t in result.moves))
        result.max_load_after = max(loads)
        result.loads_after = list(loads)
        return result
