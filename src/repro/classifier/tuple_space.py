"""Tuple space search — the MegaFlow layer (Srinivasan et al., paper §2.2).

Rules are grouped by wildcard mask; each group ("tuple") is one hash table
keyed by the masked header fields.  Classification masks the packet's
5-tuple with each tuple's mask and looks the result up in that tuple's
table.  The MegaFlow layer returns on the *first* match (tuples are
unordered caches of disjoint megaflows); the OpenFlow layer — built on the
same structure — must search all tuples and take the highest priority.

Installs are best-effort: a rule whose tuple is at capacity is not
cached, and nothing is evicted.  Only the EMC takes a
:class:`~repro.classifier.cache_policy.CachePolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..hashtable.cuckoo import CuckooHashTable
from ..sim.memory import AddressAllocator
from ..sim.trace import Tracer
from .flow import FiveTuple, FlowMask
from .rules import Rule

DEFAULT_TUPLE_CAPACITY = 1024


@dataclass
class TupleSpaceStats:
    classifications: int = 0
    hits: int = 0
    tuple_lookups: int = 0


class TupleEntry:
    """One tuple: a mask and its hash table of rules."""

    __slots__ = ("mask", "table")

    def __init__(self, mask: FlowMask, table: CuckooHashTable) -> None:
        self.mask = mask
        self.table = table

    def lookup(self, flow: FiveTuple) -> Optional[Rule]:
        return self.table.lookup(self.mask.key_of(flow))

    def __len__(self) -> int:
        return len(self.table)


class TupleSpaceSearch:
    """The tuple-space classifier."""

    def __init__(self, allocator: Optional[AddressAllocator] = None,
                 tracer: Optional[Tracer] = None,
                 tuple_capacity: int = DEFAULT_TUPLE_CAPACITY,
                 name: str = "tss") -> None:
        self.allocator = allocator
        self.tracer = tracer if tracer is not None else Tracer()
        self.tuple_capacity = tuple_capacity
        self.name = name
        self._tuples: Dict[FlowMask, TupleEntry] = {}
        self._order: List[FlowMask] = []   # insertion order = search order
        self.stats = TupleSpaceStats()

    # -- structure ---------------------------------------------------------------
    @property
    def num_tuples(self) -> int:
        return len(self._tuples)

    def tuples(self) -> Iterator[TupleEntry]:
        for mask in self._order:
            yield self._tuples[mask]

    def tuple_for(self, mask: FlowMask) -> TupleEntry:
        entry = self._tuples.get(mask)
        if entry is None:
            table = CuckooHashTable(
                self.tuple_capacity, key_bytes=16,
                allocator=self.allocator, tracer=self.tracer,
                name=f"{self.name}.tuple{len(self._order)}")
            entry = TupleEntry(mask, table)
            self._tuples[mask] = entry
            self._order.append(mask)
        return entry

    # -- rule management --------------------------------------------------------
    def install(self, rule: Rule) -> bool:
        """Add a rule; creates the tuple for its mask on first use.

        Returns False, evicting nothing, when the rule's tuple is full.
        """
        return self.tuple_for(rule.mask).table.insert(rule.key, rule)

    def remove(self, rule: Rule) -> bool:
        entry = self._tuples.get(rule.mask)
        if entry is None:
            return False
        return entry.table.delete(rule.key)

    def __len__(self) -> int:
        return sum(len(entry) for entry in self._tuples.values())

    # -- classification -----------------------------------------------------------
    def record(self, searched: int, hit: bool) -> None:
        """Book one classification that probed ``searched`` tuples.

        The one place search stats are counted: :meth:`classify`, the
        OpenFlow layer and the virtual switch's traced and HALO searches
        all book here, so they agree.
        """
        stats = self.stats
        stats.classifications += 1
        stats.tuple_lookups += searched
        if hit:
            stats.hits += 1

    def classify(self, flow: FiveTuple) -> Tuple[Optional[Rule], int]:
        """MegaFlow semantics: first match wins.

        Returns ``(rule_or_None, tuples_searched)``.
        """
        searched = 0
        for entry in self.tuples():
            searched += 1
            key = entry.mask.key_of(flow)
            rule = entry.table.lookup(key)
            if rule is not None:
                self.record(searched, True)
                return rule, searched
        self.record(searched, False)
        return None, searched

    def classify_all(self, flow: FiveTuple) -> List[Rule]:
        """All matching rules across every tuple, in search order.

        Books nothing: the OpenFlow layer, which searches this way, books
        the search when it resolves the matches.
        """
        matches: List[Rule] = []
        for entry in self.tuples():
            rule = entry.lookup(flow)
            if rule is not None:
                matches.append(rule)
        return matches

    # -- HALO integration ---------------------------------------------------------
    def halo_queries(self, flow: FiveTuple) -> List[Tuple[CuckooHashTable, bytes]]:
        """(table, masked key) pairs for dispatching one packet's tuple
        lookups to the accelerators at once (the Figure 11 NB idiom)."""
        return [(entry.table, entry.mask.key_of(flow))
                for entry in self.tuples()]
