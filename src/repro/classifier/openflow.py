"""OpenFlow layer — the slowest datapath layer (paper Figure 2a).

Implemented with tuple space search like the MegaFlow layer, but with
OpenFlow semantics: *every* tuple must be searched and the highest-priority
match returned (overlapping rules with priorities).  A miss here punts to
the controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim.memory import AddressAllocator
from ..sim.trace import Tracer
from .flow import FiveTuple
from .rules import Rule, rule_rank
from .tuple_space import TupleSpaceSearch


@dataclass
class OpenFlowStats:
    classifications: int = 0
    hits: int = 0
    controller_punts: int = 0


class OpenFlowLayer:
    """Priority-correct classification over all tuples."""

    def __init__(self, allocator: Optional[AddressAllocator] = None,
                 tracer: Optional[Tracer] = None,
                 tuple_capacity: int = 4096,
                 name: str = "openflow") -> None:
        self.tss = TupleSpaceSearch(
            allocator=allocator, tracer=tracer,
            tuple_capacity=tuple_capacity, name=name)
        self.stats = OpenFlowStats()

    @property
    def num_tuples(self) -> int:
        return self.tss.num_tuples

    def __len__(self) -> int:
        return len(self.tss)

    def install(self, rule: Rule) -> bool:
        return self.tss.install(rule)

    def remove(self, rule: Rule) -> bool:
        return self.tss.remove(rule)

    def classify(self, flow: FiveTuple) -> Optional[Rule]:
        """Search all tuples; return the highest-priority match."""
        return self.resolve(self.tss.classify_all(flow), self.tss.num_tuples)

    def resolve(self, matches: List[Rule], searched: int) -> Optional[Rule]:
        """Book one classification that probed ``searched`` tuples and
        return the highest-priority of its ``matches`` (``None``: a
        controller punt).

        Ties break on the lower rule_id (first-installed wins), matching
        OVS's deterministic resolution.  :meth:`classify` and the virtual
        switch's traced and HALO searches all resolve here, so their
        stats agree.
        """
        self.tss.record(searched, bool(matches))
        self.stats.classifications += 1
        if not matches:
            self.stats.controller_punts += 1
            return None
        self.stats.hits += 1
        return max(matches, key=rule_rank)
