"""The three-layer OVS datapath (paper Figure 2a).

Packets are classified through a hierarchy of software caches:

1. **EMC** — exact match on the full header; fastest, small.
2. **MegaFlow** — tuple space search over cached megaflows; first match.
3. **OpenFlow** — tuple space search over the full rule set; all tuples
   searched, highest priority wins; misses punt to the controller.

A MegaFlow hit installs the flow into the EMC; an OpenFlow hit installs a
megaflow (the matched rule under its own mask) into the MegaFlow layer —
the standard OVS cache-fill flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from ..obs.metrics import MetricsRegistry
from ..sim.memory import AddressAllocator
from ..sim.trace import Tracer
from .cache_policy import CachePolicy
from .emc import DEFAULT_EMC_ENTRIES, ExactMatchCache
from .flow import FiveTuple
from .openflow import OpenFlowLayer
from .rules import Rule, megaflow_entry
from .tuple_space import TupleSpaceSearch


class HitLayer(Enum):
    EMC = "emc"
    MEGAFLOW = "megaflow"
    OPENFLOW = "openflow"
    MISS = "miss"


@dataclass
class Classification:
    """The outcome for one packet."""

    flow: FiveTuple
    rule: Optional[Rule]
    layer: HitLayer
    tuples_searched: int = 0

    @property
    def hit(self) -> bool:
        return self.rule is not None


@dataclass
class DatapathStats:
    packets: int = 0
    emc_hits: int = 0
    megaflow_hits: int = 0
    openflow_hits: int = 0
    misses: int = 0

    def layer_fractions(self) -> dict:
        total = self.packets or 1
        return {
            "emc": self.emc_hits / total,
            "megaflow": self.megaflow_hits / total,
            "openflow": self.openflow_hits / total,
            "miss": self.misses / total,
        }


class OvsDatapath:
    """EMC -> MegaFlow -> OpenFlow classification with cache fills."""

    def __init__(self,
                 allocator: Optional[AddressAllocator] = None,
                 tracer: Optional[Tracer] = None,
                 emc_entries: int = DEFAULT_EMC_ENTRIES,
                 megaflow_tuple_capacity: int = 1024,
                 emc_enabled: bool = True,
                 emc_policy: Union[str, CachePolicy, None] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.emc = ExactMatchCache(emc_entries, allocator=allocator,
                                   tracer=tracer, policy=emc_policy,
                                   metrics=metrics)
        self.megaflow = TupleSpaceSearch(
            allocator=allocator, tracer=tracer,
            tuple_capacity=megaflow_tuple_capacity, name="megaflow")
        self.openflow = OpenFlowLayer(allocator=allocator, tracer=tracer)
        self.emc_enabled = emc_enabled
        self.stats = DatapathStats()

    # -- rule management ------------------------------------------------------
    def install_rule(self, rule: Rule) -> None:
        """Install an OpenFlow rule (the operator-facing rule set)."""
        self.openflow.install(rule)

    def install_megaflow(self, rule: Rule) -> None:
        """Pre-populate the MegaFlow cache (tests / warmed scenarios)."""
        self.megaflow.install(rule)

    # -- classification ---------------------------------------------------------
    def classify(self, flow: FiveTuple) -> Classification:
        self.stats.packets += 1

        if self.emc_enabled:
            key = flow.pack()
            rule = self.emc.lookup_key(key)
            if rule is not None:
                self.stats.emc_hits += 1
                return Classification(flow, rule, HitLayer.EMC)

        rule, searched = self.megaflow.classify(flow)
        if rule is not None:
            self.stats.megaflow_hits += 1
            if self.emc_enabled:
                self.emc.install_key(key, rule)
            return Classification(flow, rule, HitLayer.MEGAFLOW,
                                  tuples_searched=searched)

        rule = self.openflow.classify(flow)
        if rule is not None:
            self.stats.openflow_hits += 1
            # Cache-fill: a refined megaflow for this flow; the flow also
            # lands in the EMC.
            self.megaflow.install(megaflow_entry(rule, flow))
            if self.emc_enabled:
                self.emc.install_key(key, rule)
            return Classification(
                flow, rule, HitLayer.OPENFLOW,
                tuples_searched=searched + self.openflow.num_tuples)

        self.stats.misses += 1
        return Classification(flow, None, HitLayer.MISS,
                              tuples_searched=searched
                              + self.openflow.num_tuples)
