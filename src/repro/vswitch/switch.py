"""The virtual switch: per-packet pipeline with cycle breakdown.

Mirrors the OVS-DPDK fast path the paper profiles in §3.2 (Figure 3):

    packet IO -> pre-processing -> EMC lookup -> MegaFlow lookup -> others

Each stage's cycles are accounted separately so the Figure 3 breakdown can
be regenerated.  The classification stages run in one of three modes:

* ``SOFTWARE`` — traced table operations replayed on a simulated core
  (cuckoo hash + optimistic locking, the paper's software baseline);
* ``HALO_BLOCKING`` — classification lookups issued as ``LOOKUP_B``;
* ``HALO_NONBLOCKING`` — the MegaFlow tuple space searched by batching
  ``LOOKUP_NB`` to all tuples at once (§5.1).

Every mode is a :mod:`repro.exec` lookup backend, and the whole pipeline
is a DES *program* (:meth:`VirtualSwitch.packet_program` /
:meth:`pmd_program`): software classification spends its cycles as engine
time exactly like the HALO paths, so a switch PMD loop can be pinned to a
core with :func:`repro.exec.cores.run_cores` and collocate with NFs or
other switches on the shared memory hierarchy.  The synchronous
:meth:`process_flow` wrapper remains the single-core entry point.

Public contract
===============

A packet's cycles, its :class:`~repro.sim.stats.Breakdown`, the run
statistics, the metrics and the end time on the engine do not depend on
how many engine steps the packet takes.  In ``SOFTWARE`` mode a packet
is **one engine step** — one timeout, ending where the per-stage path
would end — when both hold as it starts:

* no fault hook or guard observes the engine
  (:func:`~repro.sim.replay.observer` is ``None``);
* the engine is otherwise idle (:meth:`~repro.sim.engine.Engine.
  next_event_time` is ``None``), so no other process can run before the
  packet ends.

Such a packet runs its functional table operations back to back, prices
their traces in program order with one
:meth:`~repro.sim.core.CoreModel.execute_window` call and books each
stage's cycles in serial order.  This is exact for the reasons windowed
replay is: the memory hierarchy never reads the clock, and functional
table operations touch only the tracer.  Every other packet **yields
per stage**, one timeout per stage and per traced table operation, and
is counted: a fault hook or a guard under ``replay.fallback.faults`` /
``replay.fallback.guard``, a busy engine under
``vswitch.fallback.busy`` (created on first use).  The HALO modes always
yield per stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Generator, Iterable, List, Optional, Tuple

from ..classifier.datapath import Classification, HitLayer
from ..classifier.emc import ExactMatchCache
from ..classifier.flow import FiveTuple
from ..classifier.openflow import OpenFlowLayer
from ..classifier.rules import (Rule, megaflow_entry, megaflow_mask_for,
                                rule_rank)
from ..classifier.tuple_space import TupleSpaceSearch
from ..core.halo_system import HaloSystem
from ..exec.backend import HaloNonblockingBackend, SoftwareBackend
from ..hashtable.locking import READ_SIDE_CYCLES
from ..obs.metrics import Histogram
from ..sim.replay import observer
from ..sim.stats import Breakdown
from ..sim.trace import MemTrace, capture
from .actions import ActionExecutor
from .packet import Packet, PacketPool
from .pktio import PacketIo


#: Counts software-mode packets that yielded per stage because another
#: event was pending when they started (see the module docstring).
METRIC_FALLBACK_BUSY = "vswitch.fallback.busy"

#: A fused packet's accrued stages in serial order: ``(stage, cycles,
#: trace)``, with ``trace`` None for a fixed cost and ``cycles`` unused
#: until the trace is priced.
_Window = List[Tuple[str, float, Optional[MemTrace]]]


class SwitchMode(Enum):
    SOFTWARE = "software"
    HALO_BLOCKING = "halo-b"
    HALO_NONBLOCKING = "halo-nb"


@dataclass
class PacketRecord:
    """Cycle accounting for one processed packet."""

    classification: Classification
    breakdown: Breakdown

    @property
    def cycles(self) -> float:
        return self.breakdown.total


@dataclass
class SwitchRunStats:
    packets: int = 0
    breakdown: Breakdown = field(default_factory=Breakdown)
    layer_hits: dict = field(default_factory=dict)

    @property
    def cycles_per_packet(self) -> float:
        return self.breakdown.total / self.packets if self.packets else 0.0

    def classification_fraction(self) -> float:
        """Share of time in flow classification (EMC + MegaFlow + OpenFlow)."""
        total = self.breakdown.total or 1.0
        classification = (self.breakdown["emc_lookup"]
                          + self.breakdown["megaflow_lookup"]
                          + self.breakdown["openflow_lookup"])
        return classification / total


class VirtualSwitch:
    """An OVS-like switch instrumented for per-stage cycle accounting."""

    def __init__(self, system: HaloSystem,
                 mode: SwitchMode = SwitchMode.SOFTWARE,
                 core_id: int = 0,
                 megaflow_tuple_capacity: int = 4096,
                 emc_enabled: bool = True) -> None:
        self.system = system
        self.mode = mode
        self.core_id = core_id
        self.emc_enabled = emc_enabled
        self._rules_by_mask: Dict[int, Dict[int, Rule]] = {}
        allocator = system.hierarchy.allocator
        tracer = system.tracer
        metrics = system.obs.metrics  # null objects when obs is disabled
        self.emc = ExactMatchCache(allocator=allocator, tracer=tracer,
                                   metrics=metrics)
        self.megaflow = TupleSpaceSearch(
            allocator=allocator, tracer=tracer,
            tuple_capacity=megaflow_tuple_capacity, name="megaflow")
        self.openflow = OpenFlowLayer(allocator=allocator, tracer=tracer)
        self.pktio = PacketIo(system.hierarchy, core_id)
        # A burst-sized mbuf ring: headers recycle through a bounded set of
        # lines, as with a real PMD's RX burst working set.
        self.pool = PacketPool(allocator, buffers=64)
        self.backend = system.backend(mode.value, core_id=core_id)
        # The OpenFlow slow path always fans out with LOOKUP_NB batches,
        # even in blocking mode (it searches every tuple anyway).
        if isinstance(self.backend, HaloNonblockingBackend):
            self._nb = self.backend
        elif mode is not SwitchMode.SOFTWARE:
            self._nb = HaloNonblockingBackend(system, core_id)
        else:
            self._nb = None
        #: The engine that prices traced table operations; None in the
        #: HALO modes, which run none.
        self.software = (self.backend.software
                         if isinstance(self.backend, SoftwareBackend)
                         else None)
        self.actions = ActionExecutor()
        self.stats = SwitchRunStats()
        self.obs = system.obs
        registry = self.obs.metrics
        self._m_packets = registry.counter("vswitch.packets")
        self._m_packet_cycles = registry.histogram("vswitch.packet_cycles")
        #: stage -> its ``vswitch.stage.<stage>_cycles`` histogram,
        #: resolved on the stage's first packet.
        self._m_stage_cycles: Dict[str, Histogram] = {}
        #: The running packet's open window while it is fused, else None.
        self._window: Optional[_Window] = None
        registry.register_source("vswitch.layer_hits",
                                 lambda: dict(self.stats.layer_hits))

    # -- rule management ----------------------------------------------------------
    def install_rules(self, rules: Iterable[Rule]) -> None:
        """Install ``rules`` into the OpenFlow layer and index them by mask
        for :meth:`prewarm_megaflows`.

        The index maps ``mask.as_int_mask()`` to ``{match.as_int(): rule}``;
        of rules sharing a mask and a match it keeps the one
        :func:`~repro.classifier.rules.rule_rank` puts first.  Each call
        replaces the index, while the OpenFlow layer keeps every rule.
        """
        by_mask: Dict[int, Dict[int, Rule]] = {}
        for rule in rules:
            self.openflow.install(rule)
            by_match = by_mask.setdefault(rule.mask.as_int_mask(), {})
            match = rule.match.as_int()
            held = by_match.get(match)
            if held is None or rule_rank(rule) > rule_rank(held):
                by_match[match] = rule
        self._rules_by_mask = by_mask

    def prewarm_megaflows(self, flows: Iterable[FiveTuple]) -> int:
        """Pre-install the megaflows the given flows would create.

        Models the steady state the paper measures: the MegaFlow layer is
        populated, so the OpenFlow layer is "seldom accessed in practice"
        (§3.1).  Each flow costs one dict probe per distinct rule mask on
        its packed int, as tuple space search does; an entry is built only
        when its (megaflow mask, masked flow) signature is new.  Returns the
        number of megaflow entries installed.
        """
        groups = list(self._rules_by_mask.items())
        seen = set()
        installed = 0
        for flow in flows:
            packed = flow.as_int()
            best = None
            for mask, by_match in groups:
                rule = by_match.get(packed & mask)
                if rule is None:
                    continue
                if best is None or rule_rank(rule) > rule_rank(best):
                    best = rule
            if best is None:
                continue
            megaflow_mask = megaflow_mask_for(best.mask).as_int_mask()
            signature = (megaflow_mask, packed & megaflow_mask)
            if signature in seen:
                continue
            seen.add(signature)
            if self.megaflow.install(megaflow_entry(best, flow)):
                installed += 1
        return installed

    def warm(self) -> None:
        """Install the classification tables into the LLC (steady state)."""
        for layer_table in self._all_tables():
            layout = layer_table.layout
            self.system.hierarchy.warm_llc(layout.metadata.base,
                                           layout.metadata.size)
            self.system.hierarchy.warm_llc(layout.buckets.base,
                                           layout.buckets.size)

    def _all_tables(self):
        yield self.emc.table
        for entry in self.megaflow.tuples():
            yield entry.table
        for entry in self.openflow.tss.tuples():
            yield entry.table

    # -- spending stage cycles: per stage, or in one fused window -------------------
    def _open_window(self) -> Optional[_Window]:
        """An empty window when this packet may be one engine step, else
        None; a fallback is counted (module docstring)."""
        if self.software is None:
            return None
        engine = self.system.engine
        reason = observer(engine)
        if reason is None:
            if engine.next_event_time() is None:
                return []
            reason = METRIC_FALLBACK_BUSY
        self.obs.metrics.counter(reason).inc()
        return None

    def _spend(self, breakdown: Breakdown, stage: str,
               cycles: float) -> Generator:
        """Program: charge a fixed cost to a stage."""
        window = self._window
        if window is not None:
            window.append((stage, cycles, None))
            return
        breakdown.add(stage, cycles)
        if cycles:
            yield self.system.engine.timeout(cycles)

    def _traced_op(self, breakdown: Breakdown, stage: str, func,
                   *args) -> Generator:
        """Program: one traced table operation charged to a stage."""
        value, trace = capture(self.system.tracer, func, *args)
        window = self._window
        if window is not None:
            window.append((stage, 0.0, trace))
            return value
        cycles = self.software.core.execute(
            trace, lock_cycles=READ_SIDE_CYCLES).cycles
        if cycles:
            yield self.system.engine.timeout(cycles)
        breakdown.add(stage, cycles)
        return value

    def _close_window(self, window: _Window,
                      breakdown: Breakdown) -> Generator:
        """Program: price a fused packet's traces in one window, book every
        stage in serial order and spend the packet as one timeout."""
        priced = iter(self.software.core.execute_batch(
            [trace for _stage, _cycles, trace in window if trace is not None],
            READ_SIDE_CYCLES))
        engine = self.system.engine
        end = engine.now
        for stage, cycles, trace in window:
            if trace is not None:
                cycles = next(priced).cycles
            breakdown.add(stage, cycles)
            # The end time the per-stage timeouts would reach, summed in
            # their order; cycle values are dyadic, so it is exact.
            end += cycles
        if end != engine.now:
            yield engine.timeout(end - engine.now)

    # -- software-mode stage execution -----------------------------------------------
    def _classify_software(self, flow: FiveTuple,
                           breakdown: Breakdown) -> Generator:
        if self.emc_enabled:
            rule = yield from self._traced_op(breakdown, "emc_lookup",
                                              self.emc.lookup, flow)
            if rule is not None:
                return Classification(flow, rule, HitLayer.EMC)

        searched = 0
        for entry in self.megaflow.tuples():
            searched += 1
            key = entry.mask.key_of(flow)
            rule = yield from self._traced_op(breakdown, "megaflow_lookup",
                                              entry.table.lookup, key)
            if rule is not None:
                self.megaflow.record(searched, True)
                yield from self._fill_caches(flow, rule, breakdown)
                return Classification(flow, rule, HitLayer.MEGAFLOW,
                                      tuples_searched=searched)
        self.megaflow.record(searched, False)

        return (yield from self._classify_openflow(flow, breakdown, searched))

    def _classify_openflow(self, flow: FiveTuple, breakdown: Breakdown,
                           searched: int) -> Generator:
        matches: List[Rule] = []
        for entry in self.openflow.tss.tuples():
            searched += 1
            rule = yield from self._traced_op(breakdown, "openflow_lookup",
                                              entry.lookup, flow)
            if rule is not None:
                matches.append(rule)
        best = self.openflow.resolve(matches, self.openflow.num_tuples)
        if best is None:
            return Classification(flow, None, HitLayer.MISS,
                                  tuples_searched=searched)
        yield from self._traced_op(breakdown, "others", self.megaflow.install,
                                   megaflow_entry(best, flow))
        yield from self._fill_caches(flow, best, breakdown)
        return Classification(flow, best, HitLayer.OPENFLOW,
                              tuples_searched=searched)

    def _fill_caches(self, flow: FiveTuple, rule: Rule,
                     breakdown: Breakdown) -> Generator:
        if self.emc_enabled:
            yield from self._traced_op(breakdown, "others", self.emc.install,
                                       flow, rule)

    # -- HALO-mode stage execution -------------------------------------------------------
    def _classify_halo(self, flow: FiveTuple,
                       breakdown: Breakdown) -> Generator:
        # HALO replaces the software EMC: with accelerated tuple-space
        # search there is no cache layer to maintain from the core, so
        # the private caches stay clean (the Figure 12 property).  The
        # hybrid controller covers the tiny-flow-count regime where the
        # software EMC would win.
        engine = self.system.engine
        queries = self.megaflow.halo_queries(flow)
        outcomes = []
        if queries:
            start = engine.now
            outcomes = yield from self.backend.search(
                queries, first_match=self.mode is SwitchMode.HALO_BLOCKING)
            # Each layer's search is booked to its own stage, even when the
            # packet falls through to the next layer.
            breakdown.add("megaflow_lookup", engine.now - start)
        # ``outcomes`` holds the tuples actually probed: up to the first
        # hit when blocking, every tuple when batched.
        for index, outcome in enumerate(outcomes):
            if outcome.found:
                self.megaflow.record(len(outcomes), True)
                return Classification(
                    flow, outcome.value, HitLayer.MEGAFLOW,
                    tuples_searched=index + 1)
        self.megaflow.record(len(outcomes), False)

        # OpenFlow layer: search all tuples, keep the best match.
        of_queries = self.openflow.tss.halo_queries(flow)
        outcomes = []
        if of_queries:
            start = engine.now
            outcomes = yield from self._nb.search(of_queries)
            breakdown.add("openflow_lookup", engine.now - start)
        best = self.openflow.resolve([o.value for o in outcomes if o.found],
                                     len(outcomes))
        if best is None:
            return Classification(flow, None, HitLayer.MISS)
        self.megaflow.install(megaflow_entry(best, flow))
        return Classification(flow, best, HitLayer.OPENFLOW)

    # -- the per-packet pipeline --------------------------------------------------------
    def classify_program(self, flow: FiveTuple,
                         breakdown: Breakdown) -> Generator:
        """Program: classify one flow, charging stages into ``breakdown``."""
        if self.backend.replaces_emc:
            return (yield from self._classify_halo(flow, breakdown))
        return (yield from self._classify_software(flow, breakdown))

    def packet_program(self, flow: FiveTuple) -> Generator:
        """The full per-packet pipeline as a DES program.

        Fixed-cost stages (packet IO, pre-processing, actions) spend their
        cycles as engine timeouts, and classification runs through the
        mode's backend — so concurrent switch/NF programs interleave on
        the engine with honest relative timing.  On an otherwise idle
        engine a software-mode packet spends them all as one timeout (see
        the module docstring).  Returns the :class:`PacketRecord`.
        """
        packet = self.pool.wrap(flow)
        breakdown = Breakdown()
        window = self._window = self._open_window()
        try:
            for stage, cycles in (
                    ("packet_io", self.pktio.receive(packet)),
                    ("preprocess", self.pktio.preprocess(packet))):
                yield from self._spend(breakdown, stage, cycles)
            classification = yield from self.classify_program(flow,
                                                              breakdown)
            if classification.hit:
                outcome = self.actions.execute(packet,
                                               classification.rule.action)
                yield from self._spend(breakdown, "others", outcome.cycles)
            yield from self._spend(breakdown, "others",
                                   self.pktio.finish(packet))
            if window is not None:
                yield from self._close_window(window, breakdown)
        finally:
            self._window = None

        self._record(classification, breakdown)
        return PacketRecord(classification=classification,
                            breakdown=breakdown)

    def pmd_program(self, flows: Iterable[FiveTuple]) -> Generator:
        """Program: a PMD loop over a packet stream (for ``run_cores``)."""
        records = []
        for flow in flows:
            record = yield from self.packet_program(flow)
            records.append(record)
        return records

    def _record(self, classification: Classification,
                breakdown: Breakdown) -> None:
        stats = self.stats
        stats.packets += 1
        # Summed in place, in ``Breakdown.merged``'s order.
        run_parts = stats.breakdown.parts
        for stage, cycles in breakdown.parts.items():
            run_parts[stage] = run_parts.get(stage, 0.0) + cycles
        layer = classification.layer.value
        stats.layer_hits[layer] = stats.layer_hits.get(layer, 0) + 1
        self._m_packets.inc()
        self._m_packet_cycles.observe(breakdown.total)
        # Per-stage latency histograms, keyed by the Figure 3 stage
        # names (packet_io / preprocess / emc_lookup / ...).
        histograms = self._m_stage_cycles
        for stage, cycles in breakdown.parts.items():
            histogram = histograms.get(stage)
            if histogram is None:
                histogram = histograms[stage] = self.obs.metrics.histogram(
                    f"vswitch.stage.{stage}_cycles")
            histogram.observe(cycles)

    def process_flow(self, flow: FiveTuple) -> PacketRecord:
        """Process one packet synchronously (drives the engine internally)."""
        return self.system.engine.run_process(self.packet_program(flow),
                                              name="packet")

    def process_stream(self, flows: Iterable[FiveTuple]) -> SwitchRunStats:
        for flow in flows:
            self.process_flow(flow)
        return self.stats
