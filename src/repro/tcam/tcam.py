"""Ternary content-addressable memory (TCAM) model.

The paper's upper-bound comparator: a TCAM searches *all* stored ternary
rules in parallel and answers in a few clock cycles, independent of rule
count — but updates are expensive (priority-ordered rule tables must be
kept sorted, forcing entry shuffles) and its power grows steeply with
capacity (see :mod:`repro.tcam.power`).

The functional model stores {value, mask, priority} rules over fixed-width
integer keys and returns the highest-priority match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

#: Search latency in cycles — "TCAM can execute one data lookup operation in
#: a few clock cycles" (paper §1, [58]).
TCAM_SEARCH_CYCLES = 4

#: SRAM-based TCAM emulation (Z-TCAM-style, paper refs [75-77]) partitions
#: the table into SRAM blocks with match logic; the partitioned match
#: pipeline adds a couple of stages over native TCAM.
SRAM_TCAM_SEARCH_CYCLES = 7

#: Per-displaced-entry cost of a priority-preserving update (paper: updates
#: are expensive and inflexible [67]).
TCAM_UPDATE_CYCLES_PER_MOVE = 8


@dataclass(frozen=True)
class TernaryRule:
    """One TCAM entry: ``key`` matches iff (key & mask) == (value & mask)."""

    value: int
    mask: int
    priority: int
    action: Any = None

    def matches(self, key: int) -> bool:
        return (key & self.mask) == (self.value & self.mask)


@dataclass
class TcamStats:
    searches: int = 0
    hits: int = 0
    updates: int = 0
    update_moves: int = 0


@dataclass
class TcamMatch:
    rule: TernaryRule
    index: int
    latency: int = TCAM_SEARCH_CYCLES


class Tcam:
    """A capacity-bounded ternary match engine."""

    def __init__(self, capacity_rules: int, key_bits: int = 104) -> None:
        # 104 bits = the 5-tuple (src/dst IP, src/dst port, proto).
        if capacity_rules < 1:
            raise ValueError("TCAM capacity must be positive")
        self.capacity = capacity_rules
        self.key_bits = key_bits
        self._rules: List[TernaryRule] = []   # kept sorted by priority desc
        self.stats = TcamStats()

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def full(self) -> bool:
        return len(self._rules) >= self.capacity

    def install(self, rule: TernaryRule) -> int:
        """Insert a rule, keeping priority order; returns the update cost.

        The cost models the entry moves a real TCAM performs to keep
        higher-priority rules at lower indices.
        """
        if self.full:
            raise OverflowError("TCAM full")
        position = 0
        while (position < len(self._rules)
               and self._rules[position].priority >= rule.priority):
            position += 1
        moves = len(self._rules) - position
        self._rules.insert(position, rule)
        self.stats.updates += 1
        self.stats.update_moves += moves
        return TCAM_SEARCH_CYCLES + moves * TCAM_UPDATE_CYCLES_PER_MOVE

    def remove(self, rule: TernaryRule) -> bool:
        try:
            self._rules.remove(rule)
        except ValueError:
            return False
        self.stats.updates += 1
        return True

    def search(self, key: int) -> Optional[TcamMatch]:
        """Parallel match: first (highest-priority) matching rule."""
        self.stats.searches += 1
        for index, rule in enumerate(self._rules):
            if rule.matches(key):
                self.stats.hits += 1
                return TcamMatch(rule=rule, index=index)
        return None

    def search_latency(self) -> int:
        """Constant, capacity-independent search latency."""
        return TCAM_SEARCH_CYCLES


def exact_rule(value: int, key_bits: int, priority: int = 0,
               action: Any = None) -> TernaryRule:
    """A fully-specified (no-wildcard) rule — TCAM as an exact-match table."""
    return TernaryRule(value=value, mask=(1 << key_bits) - 1,
                       priority=priority, action=action)
