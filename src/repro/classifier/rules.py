"""Match-action rules.

A rule pairs a :class:`~repro.classifier.flow.FlowMask` with the masked
field values to match and an action to apply.  Rules sharing a mask form one
tuple in tuple space search; priorities order rules across tuples in the
OpenFlow layer.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional, Tuple

from .flow import FiveTuple, FlowMask

_rule_ids = itertools.count(1)


class ActionKind(Enum):
    OUTPUT = "output"     # forward to a port / VNF
    DROP = "drop"
    NAT = "nat"           # rewrite addresses
    MIRROR = "mirror"
    CONTROLLER = "controller"  # punt to the control plane


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    argument: Any = None

    @classmethod
    def output(cls, port: int) -> "Action":
        return cls(ActionKind.OUTPUT, port)

    @classmethod
    def drop(cls) -> "Action":
        return cls(ActionKind.DROP)


@dataclass(frozen=True)
class Rule:
    """One match-action rule."""

    mask: FlowMask
    match: FiveTuple          # already-masked field values
    action: Action
    priority: int = 0
    rule_id: int = field(default_factory=lambda: next(_rule_ids))

    def __post_init__(self) -> None:
        masked = self.mask.apply(self.match)
        if masked != self.match:
            raise ValueError(
                "rule match fields must be pre-masked by the rule's mask")

    def matches(self, flow: FiveTuple) -> bool:
        return self.mask.apply(flow) == self.match

    @property
    def key(self) -> bytes:
        """The hash-table key under this rule's tuple."""
        return self.match.pack()


def rule_rank(rule: Rule) -> Tuple[int, int]:
    """The order rule resolution picks by: highest priority, then the lower
    ``rule_id`` (first installed), as OVS resolves deterministically."""
    return rule.priority, -rule.rule_id


def rule_for_flow(flow: FiveTuple, action: Action, mask: Optional[FlowMask] = None,
                  priority: int = 0) -> Rule:
    """Build a rule matching ``flow`` under ``mask`` (exact by default)."""
    mask = mask or FlowMask.exact()
    return Rule(mask=mask, match=mask.apply(flow), action=action,
                priority=priority)


@functools.lru_cache(maxsize=1024)
def megaflow_mask_for(rule_mask: FlowMask) -> FlowMask:
    """The mask a megaflow entry is installed under.

    OVS generates megaflows finer than the matched rule: every field the
    classification consulted is un-wildcarded.  We model the common outcome
    — the full destination address plus a /16 source refinement become
    exact — so a rule covering a service subnet expands into roughly one
    megaflow per client/destination pair.  This gives the MegaFlow layer
    its realistic population (entries scale with the flow count, which is
    exactly why the paper's many-flow scenarios are LLC-bound).

    Memoised: a pure function of a frozen mask, so every megaflow refined
    from one rule mask shares one mask object and the per-upcall install
    builds no new mask.
    """
    # How far the source refines depends on how much the rule consulted:
    # fully-wild sources refine to /16, prefix rules to /24 — keeping rule
    # masks with different source prefixes in different megaflow tuples.
    if rule_mask.src_ip_mask == 0:
        src_refined = 0xFFFF0000
    else:
        src_refined = rule_mask.src_ip_mask | 0xFFFFFF00
    return FlowMask(
        src_ip_mask=src_refined,
        dst_ip_mask=0xFFFFFFFF,
        src_port_mask=rule_mask.src_port_mask,
        dst_port_mask=rule_mask.dst_port_mask,
        proto_mask=rule_mask.proto_mask,
    )


def megaflow_entry(rule: Rule, flow: FiveTuple) -> Rule:
    """The megaflow installed after ``rule`` matched ``flow``."""
    mask = megaflow_mask_for(rule.mask)
    return Rule(mask=mask, match=mask.apply(flow), action=rule.action,
                priority=rule.priority)
