"""Exact Match Cache — the first OVS datapath layer (paper Figure 2a).

A single hash table keyed by the *full* packet header: one lookup, no
wildcard masking, fastest path.  Its capacity is deliberately small (OVS
defaults to 8K entries), so only hot flows stay resident; under large flow
counts it thrashes and most packets fall through to the MegaFlow layer —
the effect behind Figure 3's growing MegaFlow share.

Admission and eviction are delegated to a pluggable
:class:`~repro.classifier.cache_policy.CachePolicy`; the default
:class:`~repro.classifier.cache_policy.RandomEvictionPolicy` reproduces
the historical probabilistic replacement bit-identically.  When a
:class:`~repro.obs.metrics.MetricsRegistry` is attached, the cache
publishes ``<name>.evictions`` / ``<name>.admission_rejects`` counters
and a per-policy windowed miss-rate histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..hashtable.cuckoo import CuckooHashTable
from ..obs.metrics import (MetricsRegistry, NULL_COUNTER, NULL_HISTOGRAM)
from ..sim.memory import AddressAllocator
from ..sim.trace import Tracer
from .cache_policy import CachePolicy, RandomEvictionPolicy, make_policy
from .flow import FiveTuple
from .rules import Rule

#: OVS's default EMC capacity.
DEFAULT_EMC_ENTRIES = 8192

#: Lookups per miss-rate histogram observation window.
DEFAULT_MISS_WINDOW = 256

#: Miss-rate fraction buckets (0..1 in tenths).
MISS_RATE_BOUNDS = tuple(i / 10 for i in range(1, 11))


@dataclass
class EmcStats:
    lookups: int = 0
    hits: int = 0
    installs: int = 0
    evictions: int = 0
    admission_rejects: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.lookups else 0.0


class ExactMatchCache:
    """The EMC layer: exact-match flow -> rule cache with pluggable policy."""

    def __init__(self, capacity: int = DEFAULT_EMC_ENTRIES,
                 allocator: Optional[AddressAllocator] = None,
                 tracer: Optional[Tracer] = None,
                 seed: int = 0xE3C,
                 name: str = "emc",
                 policy: Union[str, CachePolicy, None] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 miss_window: int = DEFAULT_MISS_WINDOW) -> None:
        self.table = CuckooHashTable(
            capacity, key_bytes=16, allocator=allocator, tracer=tracer,
            name=name)
        self.capacity = capacity
        self.stats = EmcStats()
        if policy is None:
            policy = RandomEvictionPolicy(seed)
        elif isinstance(policy, str):
            policy = make_policy(policy, seed)
        self.policy = policy
        self._miss_window = max(1, miss_window)
        self._window_lookups = 0
        self._window_misses = 0
        if metrics is None:
            self._m_evictions = NULL_COUNTER
            self._m_rejects = NULL_COUNTER
            self._m_miss_rate = NULL_HISTOGRAM
        else:
            self._m_evictions = metrics.counter(f"{name}.evictions")
            self._m_rejects = metrics.counter(f"{name}.admission_rejects")
            self._m_miss_rate = metrics.histogram(
                f"{name}.{policy.name}.window_miss_rate",
                bounds=MISS_RATE_BOUNDS)

    def lookup(self, flow: FiveTuple) -> Optional[Rule]:
        """One exact lookup; returns the cached rule or None."""
        return self.lookup_key(flow.pack())

    def lookup_key(self, key: bytes) -> Optional[Rule]:
        """:meth:`lookup`, but keyed on the packed 16-byte 5-tuple.

        The cluster layer's key streams are already packed (see
        ``repro.traffic.generator.key_stream``); this entry point lets
        them drive the EMC without a round-trip through
        :class:`~repro.classifier.flow.FiveTuple`.  Bit-identical to
        ``lookup(FiveTuple.unpack(key))``."""
        self.stats.lookups += 1
        rule = self.table.lookup(key)
        self._window_lookups += 1
        if rule is not None:
            self.stats.hits += 1
            self.policy.on_hit(key)
        else:
            self._window_misses += 1
        if self._window_lookups >= self._miss_window:
            self._m_miss_rate.observe(
                self._window_misses / self._window_lookups)
            self._window_lookups = 0
            self._window_misses = 0
        return rule

    def install(self, flow: FiveTuple, rule: Rule) -> None:
        """Cache the classification result for this exact flow.

        OVS's EMC replacement is in-place: when the new key's candidate
        buckets are full, the policy picks one resident entry to evict.
        That keeps installs O(1) — no cuckoo displacement search runs for
        a cache layer that tolerates loss.  The policy may also reject
        the install outright (admission control); either way insertion is
        best-effort, exactly as in OVS.
        """
        self.install_key(flow.pack(), rule)

    def install_key(self, key: bytes, rule: Rule) -> None:
        """:meth:`install`, but keyed on the packed 16-byte 5-tuple (the
        cluster layer's native key representation).

        The key is probed once: the insert reuses the probe's plan, which
        evicting a resident victim (never the missing key) leaves true."""
        table = self.table
        plan = table.probe(key)
        if plan.found:
            table.insert_planned(plan, rule)   # refresh the cached rule
            self.policy.on_hit(key)
            return
        if not self.policy.admit(key):
            self.stats.admission_rejects += 1
            self._m_rejects.inc()
            return
        candidates = (plan.primary_index, plan.secondary_index)
        if (table.bucket_is_full(plan.primary_index)
                and table.bucket_is_full(plan.secondary_index)):
            victim = self.policy.victim(table, candidates)
            if victim is not None:
                table.delete(victim)
                self.policy.on_evict(victim)
                self.stats.evictions += 1
                self._m_evictions.inc()
        if table.insert_planned(plan, rule):
            self.stats.installs += 1
            self.policy.on_install(key)
        # else: displacement path exhausted; skip caching (OVS behaves the
        # same: EMC insertion is best-effort).

    def __len__(self) -> int:
        return len(self.table)
