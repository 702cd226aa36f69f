"""Lookup queries and results exchanged between cores and HALO accelerators.

A query carries the three items the paper specifies (§4.2): the key address,
the table address, and the result destination (a register for ``LOOKUP_B``,
a memory location for ``LOOKUP_NB``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

_query_ids = itertools.count(1)


class ResultDestination(Enum):
    REGISTER = "register"   # LOOKUP_B: value returned to the core pipeline
    MEMORY = "memory"       # LOOKUP_NB: accelerator writes a result slot


@dataclass
class LookupQuery:
    """One in-flight hash-table lookup."""

    table: Any                       # CuckooHashTable (or compatible)
    key: bytes
    key_addr: int
    destination: ResultDestination = ResultDestination.REGISTER
    result_addr: Optional[int] = None   # for LOOKUP_NB
    core_id: int = 0
    query_id: int = field(default_factory=lambda: next(_query_ids))
    issued_at: float = 0.0
    #: Root trace span for this query's journey (set by the distributor
    #: when observability is on; stages nest their child spans under it).
    span: Any = None

    def __post_init__(self) -> None:
        if (self.destination is ResultDestination.MEMORY
                and self.result_addr is None):
            raise ValueError("LOOKUP_NB query needs a result address")

    @property
    def table_addr(self) -> int:
        return self.table.table_addr


@dataclass
class QueryResult:
    """Completion record for one query."""

    query: LookupQuery
    found: bool
    value: Any
    started_at: float
    completed_at: float
    accelerator_slice: int

    @property
    def latency(self) -> float:
        """Cycles from issue to completion (including distributor queueing)."""
        return self.completed_at - self.query.issued_at

    @property
    def service_cycles(self) -> float:
        """Cycles spent inside the accelerator."""
        return self.completed_at - self.started_at
