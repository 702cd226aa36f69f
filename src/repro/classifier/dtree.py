"""Decision-tree packet classification (EffiCuts-style) — the paper's §4.8
general-applicability extension.

HiCuts/EffiCuts classifiers cut the rule space into a decision tree whose
leaves hold small rule lists; classification walks root→leaf comparing the
packet's fields against node boundaries.  The paper argues HALO generalises
beyond hash tables: "EffiCuts uses a decision tree for packet
classification ... HALO accelerator can be used to conduct the comparison
with the nodes in the tree", because a tree walk is the same shape of
work — a dependent chain of fetch-and-compare steps over LLC-resident
nodes.

This module provides:

* :class:`DecisionTreeClassifier` — a real (functional) tree built from
  :class:`~repro.classifier.rules.Rule` sets by recursive equal-size cuts,
  with every node materialised at a cache-line address;
* software-path cost: a traced root→leaf walk replayed on a core;
* HALO-path cost: the same walk executed CHA-side (each node fetch at
  near-cache latency, comparisons in the accelerator's comparators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence, Tuple

from ..sim.memory import AddressAllocator
from ..sim.trace import InstructionMix, Tracer
from .flow import FiveTuple
from .rules import Rule

#: Dimensions a node may cut: (accessor, field width in bits).
DIMENSIONS = (
    ("src_ip", 32),
    ("dst_ip", 32),
    ("src_port", 16),
    ("dst_port", 16),
)

#: Rules per leaf before we stop cutting (EffiCuts' binth).
DEFAULT_LEAF_RULES = 4
#: Cuts per internal node (power of two).
DEFAULT_CUTS = 4
MAX_DEPTH = 12

#: Instruction cost of one software node visit (bounds compare + child
#: index arithmetic + load).
NODE_VISIT_MIX = InstructionMix(loads=6, stores=1, arithmetic=8, others=7)
#: Instruction cost of one leaf rule check.
LEAF_RULE_MIX = InstructionMix(loads=8, stores=1, arithmetic=10, others=8)


def _field_range(rule: Rule, accessor: str, width: int) -> Tuple[int, int]:
    """The [lo, hi] interval a rule covers on one dimension."""
    mask_attr = {"src_ip": "src_ip_mask", "dst_ip": "dst_ip_mask",
                 "src_port": "src_port_mask",
                 "dst_port": "dst_port_mask"}[accessor]
    mask = getattr(rule.mask, mask_attr)
    value = getattr(rule.match, accessor)
    full = (1 << width) - 1
    # Prefix-style masks: wildcard bits are the zero bits of the mask.
    lo = value & mask
    hi = lo | (full & ~mask)
    return lo, hi


@dataclass
class TreeNode:
    """One decision-tree node occupying a cache line."""

    addr: int
    depth: int
    dimension: Optional[int] = None        # index into DIMENSIONS; None=leaf
    cut_lo: int = 0
    cut_hi: int = 0
    children: List["TreeNode"] = field(default_factory=list)
    rules: List[Rule] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.dimension is None


@dataclass
class TreeStats:
    classifications: int = 0
    hits: int = 0
    nodes_visited: int = 0
    leaf_rules_checked: int = 0


class DecisionTreeClassifier:
    """An equal-size-cut decision tree over a rule set."""

    def __init__(self, rules: Sequence[Rule],
                 leaf_rules: int = DEFAULT_LEAF_RULES,
                 cuts: int = DEFAULT_CUTS,
                 allocator: Optional[AddressAllocator] = None,
                 tracer: Optional[Tracer] = None,
                 name: str = "dtree") -> None:
        if cuts < 2 or cuts & (cuts - 1):
            raise ValueError("cuts must be a power of two >= 2")
        self.rules = list(rules)
        self.leaf_rules = leaf_rules
        self.cuts = cuts
        self.tracer = tracer if tracer is not None else Tracer()
        self._allocator = allocator or AddressAllocator(1 << 34)
        # Pre-allocate a node region; nodes are bump-allocated lines.
        self._region = self._allocator.alloc(1 << 22, f"{name}.nodes")
        self._next_node = 0
        self.stats = TreeStats()
        bounds = [(0, (1 << width) - 1) for _name, width in DIMENSIONS]
        self.root = self._build(self.rules, bounds, depth=0)
        self.num_nodes = self._next_node

    # -- construction -----------------------------------------------------------
    def _alloc_node(self, depth: int) -> TreeNode:
        addr = self._region.base + self._next_node * 64
        if addr >= self._region.end:
            raise MemoryError("decision tree node region exhausted")
        self._next_node += 1
        return TreeNode(addr=addr, depth=depth)

    def _build(self, rules: List[Rule], bounds: List[Tuple[int, int]],
               depth: int) -> TreeNode:
        node = self._alloc_node(depth)
        if len(rules) <= self.leaf_rules or depth >= MAX_DEPTH:
            node.rules = sorted(rules, key=lambda r: -r.priority)
            return node
        dimension = self._pick_dimension(rules, bounds)
        if dimension is None:
            node.rules = sorted(rules, key=lambda r: -r.priority)
            return node
        accessor, width = DIMENSIONS[dimension]
        lo, hi = bounds[dimension]
        node.dimension = dimension
        node.cut_lo, node.cut_hi = lo, hi
        span = (hi - lo + 1) // self.cuts
        for cut in range(self.cuts):
            child_lo = lo + cut * span
            child_hi = hi if cut == self.cuts - 1 else child_lo + span - 1
            child_rules = [
                rule for rule in rules
                if _overlaps(_field_range(rule, accessor, width),
                             (child_lo, child_hi))]
            child_bounds = list(bounds)
            child_bounds[dimension] = (child_lo, child_hi)
            # Recurse even when one child inherits every rule: its bounds
            # are narrower, so deeper cuts will discriminate (termination is
            # guaranteed by the shrinking bounds and MAX_DEPTH).
            child = self._build(child_rules, child_bounds, depth + 1)
            node.children.append(child)
        return node

    def _pick_dimension(self, rules: List[Rule],
                        bounds: List[Tuple[int, int]]) -> Optional[int]:
        """The dimension whose cuts best separate the rules."""
        best, best_score = None, len(rules) * self.cuts
        for dimension, (accessor, width) in enumerate(DIMENSIONS):
            lo, hi = bounds[dimension]
            if hi - lo + 1 < self.cuts:
                continue
            span = (hi - lo + 1) // self.cuts
            total = 0
            for cut in range(self.cuts):
                child_lo = lo + cut * span
                child_hi = hi if cut == self.cuts - 1 else child_lo + span - 1
                total += sum(
                    1 for rule in rules
                    if _overlaps(_field_range(rule, accessor, width),
                                 (child_lo, child_hi)))
            if total < best_score:
                best, best_score = dimension, total
        if best is not None and best_score >= len(rules) * self.cuts:
            return None
        return best

    # -- classification ------------------------------------------------------------
    def walk_path(self, flow: FiveTuple) -> List[TreeNode]:
        """The root→leaf node sequence this flow traverses."""
        path = [self.root]
        node = self.root
        while not node.is_leaf:
            accessor, _width = DIMENSIONS[node.dimension]
            value = getattr(flow, accessor)
            lo, hi = node.cut_lo, node.cut_hi
            span = (hi - lo + 1) // self.cuts
            index = min((value - lo) // span if span else 0, self.cuts - 1)
            index = max(0, index)
            node = node.children[index]
            path.append(node)
        return path

    def classify(self, flow: FiveTuple) -> Optional[Rule]:
        """Highest-priority matching rule, with memory tracing."""
        self.stats.classifications += 1
        path = self.walk_path(flow)
        tracer = self.tracer
        mix_loads = mix_stores = mix_arith = mix_other = 0
        for hop, node in enumerate(path):
            self.stats.nodes_visited += 1
            if tracer.enabled:
                if hop:
                    tracer.barrier()
                tracer.load(node.addr, 64)
            mix_loads += NODE_VISIT_MIX.loads
            mix_stores += NODE_VISIT_MIX.stores
            mix_arith += NODE_VISIT_MIX.arithmetic
            mix_other += NODE_VISIT_MIX.others
        leaf = path[-1]
        best: Optional[Rule] = None
        for rule in leaf.rules:
            self.stats.leaf_rules_checked += 1
            mix_loads += LEAF_RULE_MIX.loads
            mix_stores += LEAF_RULE_MIX.stores
            mix_arith += LEAF_RULE_MIX.arithmetic
            mix_other += LEAF_RULE_MIX.others
            if rule.matches(flow):
                best = rule
                break   # leaf rules are priority-sorted
        if tracer.enabled:
            tracer.count(loads=mix_loads, stores=mix_stores,
                         arithmetic=mix_arith, others=mix_other)
        if best is not None:
            self.stats.hits += 1
        return best

    # -- HALO-accelerated walk (paper §4.8) -------------------------------------------
    def halo_walk(self, system, flow: FiveTuple, core_id: int = 0):
        """Walk the tree with near-cache node fetches; returns an Episode.

        Models the §4.8 proposal: the accelerator fetches each node from
        the LLC slice that homes it and runs the boundary comparison in its
        comparators, following the child pointer — the same dependent
        fetch-compare chain as a bucket scan.
        """
        path = self.walk_path(flow)
        leaf = path[-1]
        latency = system.hierarchy.latency
        halo = system.machine.halo

        def program() -> Generator:
            engine = system.engine
            yield engine.timeout(1 + latency.dispatch)   # issue + dispatch
            slice_id = system.hierarchy.interconnect.slice_of_table(
                self.root.addr)
            for node in path:
                access = system.hierarchy.cha_access(slice_id, node.addr)
                yield engine.timeout(access.latency + halo.compare_latency)
            for rule in leaf.rules:
                yield engine.timeout(halo.compare_latency)
                if rule.matches(flow):
                    break
            yield engine.timeout(latency.result_return)
            return self.classify_functional(flow)

        return system.run_program(program(), name="halo_tree_walk")

    def classify_functional(self, flow: FiveTuple) -> Optional[Rule]:
        """Classification result with no tracing/stats (pure)."""
        leaf = self.walk_path(flow)[-1]
        for rule in leaf.rules:
            if rule.matches(flow):
                return rule
        return None

    def depth(self) -> int:
        def _depth(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(_depth(child) for child in node.children)
        return _depth(self.root)


def _overlaps(first: Tuple[int, int], second: Tuple[int, int]) -> bool:
    return first[0] <= second[1] and second[0] <= first[1]
