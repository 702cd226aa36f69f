"""Pluggable cache-management policies for the EMC.

OVS's datapath caches lose their value under churn: when flow arrival
rates approach the cache capacity per eviction interval, every install
evicts a still-hot entry and the miss rate collapses (the regime Flow
Correlator targets).  Which entries *enter* the cache (admission) and
which leave (victim selection) then matter more than raw capacity.  This
module factors both decisions out of :class:`ExactMatchCache` behind one
small protocol so workload experiments can sweep strategies without
touching the cache structure.  The MegaFlow tier takes no policy: its
installs are best-effort (:mod:`repro.classifier.tuple_space`).

Public contract: :class:`CachePolicy` is the stable seam — ``admit()``
gates installs, ``victim()`` picks the entry to evict from the candidate
buckets, and ``on_hit``/``on_install``/``on_evict`` keep the policy's
book-keeping in sync with the table.  ``make_policy(name, seed)``
constructs any of :data:`POLICY_NAMES`; :class:`RandomEvictionPolicy` is
the default everywhere and reproduces the seed EMC's probabilistic
replacement bit-identically (same ``random.Random`` stream, same call
order), pinned by the parity suite at rel=1e-12.  Policies are plain
Python book-keeping: they never touch the hash table's memory through
the tracer, so attaching one perturbs no modelled timing.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

#: Default RNG seed, shared with :class:`~repro.classifier.emc.ExactMatchCache`.
DEFAULT_POLICY_SEED = 0xE3C


def candidate_keys(table, buckets: Sequence[int]) -> List[bytes]:
    """Resident keys of the candidate buckets, deduplicated in scan order.

    The two cuckoo buckets of a key can coincide; scanning primary first
    and skipping a repeated bucket keeps victim selection deterministic.
    A key lives in exactly one bucket, so only a repeated bucket can
    repeat a key.
    """
    keys: List[bytes] = []
    for bucket in dict.fromkeys(buckets):
        keys += table.bucket_keys(bucket)
    return keys


class CachePolicy:
    """Admission + victim selection for a best-effort cache layer.

    Subclasses override :meth:`victim` (mandatory) and any of the
    book-keeping hooks.  All state must be derived deterministically from
    the constructor arguments: two same-seeded instances fed the same
    call sequence make bit-identical decisions.
    """

    #: Registry name; also used for per-policy metric names.
    name = "base"

    def admit(self, key: bytes) -> bool:
        """Should this (missing) key be cached at all?"""
        return True

    def on_hit(self, key: bytes) -> None:
        """A lookup (or refresh-install) touched a resident key."""

    def on_install(self, key: bytes) -> None:
        """The key was inserted into the table."""

    def on_evict(self, key: bytes) -> None:
        """The key left the table (policy eviction or explicit removal)."""

    def victim(self, table, buckets: Sequence[int]) -> Optional[bytes]:
        """The resident key to evict so a new key can take its place.

        ``buckets`` are the new key's candidate bucket indices; both are
        full when this is called.  Returning ``None`` skips caching (the
        install is abandoned, never forced).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all book-keeping (table was cleared or rebuilt)."""


class RandomEvictionPolicy(CachePolicy):
    """OVS's probabilistic in-place replacement — the historical default.

    Picks a random candidate bucket, then a random resident key within
    it.  The RNG stream (``random.Random(seed)``, two draws per eviction)
    matches the pre-policy ``ExactMatchCache`` exactly, so the default
    configuration stays bit-identical with the seed implementation.
    """

    name = "random"

    def __init__(self, seed: int = DEFAULT_POLICY_SEED) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    def victim(self, table, buckets: Sequence[int]) -> Optional[bytes]:
        bucket = self._random.choice(buckets)
        victims = table.bucket_keys(bucket)
        if not victims:
            return None
        return self._random.choice(victims)

    def reset(self) -> None:
        self._random = random.Random(self._seed)


class LruPolicy(CachePolicy):
    """Evict the least-recently-used key among the candidate buckets.

    A logical clock ticks on every hit/install; the victim is the
    candidate with the oldest timestamp (never-touched keys count as
    oldest, ties resolve to scan order).  Admission is unconditional —
    this is the classic recency baseline the smarter policies must beat.
    """

    name = "lru"

    def __init__(self, seed: int = DEFAULT_POLICY_SEED) -> None:
        del seed  # deterministic without randomness; kept for uniformity
        self._tick = 0
        self._last_use: Dict[bytes, int] = {}

    def on_hit(self, key: bytes) -> None:
        self._tick += 1
        self._last_use[key] = self._tick

    on_install = on_hit

    def on_evict(self, key: bytes) -> None:
        self._last_use.pop(key, None)

    def victim(self, table, buckets: Sequence[int]) -> Optional[bytes]:
        best = None
        best_tick = None
        for key in candidate_keys(table, buckets):
            tick = self._last_use.get(key, -1)
            if best_tick is None or tick < best_tick:
                best, best_tick = key, tick
        return best

    def reset(self) -> None:
        self._tick = 0
        self._last_use.clear()


class SecondChancePolicy(CachePolicy):
    """Probabilistic admission plus CLOCK (second-chance) eviction.

    Admission mirrors OVS's ``emc-insert-inv-prob``: a miss is cached
    with probability ``1/lottery``.  One-packet flows (SYN floods, mice)
    rarely win the lottery and never pollute the cache, while elephants
    retry on every miss and get in quickly.  Eviction scans the candidate
    buckets CLOCK-style: each resident key holds a reference bit set on
    hit; the first key found with a clear bit is the victim, and bits are
    cleared in passing (so every entry gets a second chance).
    """

    name = "second-chance"

    def __init__(self, seed: int = DEFAULT_POLICY_SEED,
                 lottery: int = 4) -> None:
        if lottery < 1:
            raise ValueError("lottery must be >= 1")
        self._seed = seed
        self.lottery = lottery
        self._random = random.Random(seed)
        self._referenced: Dict[bytes, bool] = {}

    def admit(self, key: bytes) -> bool:
        return self._random.randrange(self.lottery) == 0

    def on_hit(self, key: bytes) -> None:
        self._referenced[key] = True

    def on_install(self, key: bytes) -> None:
        self._referenced[key] = False

    def on_evict(self, key: bytes) -> None:
        self._referenced.pop(key, None)

    def victim(self, table, buckets: Sequence[int]) -> Optional[bytes]:
        keys = candidate_keys(table, buckets)
        if not keys:
            return None
        for key in keys:
            if not self._referenced.get(key, False):
                return key
            self._referenced[key] = False  # second chance spent
        return keys[0]

    def reset(self) -> None:
        self._random = random.Random(self._seed)
        self._referenced.clear()


class CorrelatorPolicy(CachePolicy):
    """Flow Correlator-style elephant-aware admission and eviction.

    A bounded recent-miss sketch counts install attempts per key: a key
    is admitted only after ``admit_after`` attempts, i.e. once it has
    *proven* reuse — one-hit wonders never displace resident flows.
    Eviction removes the resident candidate with the fewest hits since
    install (the mouse), so elephants accumulate protection as they are
    hit.  The sketch holds at most ``history`` keys, evicting its own
    oldest entries FIFO, which bounds memory under million-flow churn.
    """

    name = "correlator"

    def __init__(self, seed: int = DEFAULT_POLICY_SEED,
                 admit_after: int = 2, history: int = 4096) -> None:
        del seed  # deterministic without randomness; kept for uniformity
        if admit_after < 1:
            raise ValueError("admit_after must be >= 1")
        if history < 1:
            raise ValueError("history must be >= 1")
        self.admit_after = admit_after
        self.history = history
        self._attempts: Dict[bytes, int] = {}
        self._hits: Dict[bytes, int] = {}

    def admit(self, key: bytes) -> bool:
        count = self._attempts.pop(key, 0) + 1
        self._attempts[key] = count  # re-insert at the recent end
        while len(self._attempts) > self.history:
            del self._attempts[next(iter(self._attempts))]
        return count >= self.admit_after

    def on_hit(self, key: bytes) -> None:
        self._hits[key] = self._hits.get(key, 0) + 1

    def on_install(self, key: bytes) -> None:
        self._hits[key] = 0
        self._attempts.pop(key, None)

    def on_evict(self, key: bytes) -> None:
        self._hits.pop(key, None)

    def victim(self, table, buckets: Sequence[int]) -> Optional[bytes]:
        best = None
        best_hits = None
        for key in candidate_keys(table, buckets):
            hits = self._hits.get(key, 0)
            if best_hits is None or hits < best_hits:
                best, best_hits = key, hits
        return best

    def reset(self) -> None:
        self._attempts.clear()
        self._hits.clear()


#: Registry order is also the sweep order in the cache_churn experiment.
_POLICIES = {
    policy.name: policy
    for policy in (RandomEvictionPolicy, LruPolicy, SecondChancePolicy,
                   CorrelatorPolicy)
}

POLICY_NAMES: Tuple[str, ...] = tuple(_POLICIES)


def make_policy(name: str, seed: int = DEFAULT_POLICY_SEED) -> CachePolicy:
    """Construct a registered policy by name (see :data:`POLICY_NAMES`)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown cache policy {name!r}; choose from {POLICY_NAMES}")
    return cls(seed=seed)
