"""The five end-to-end workloads and their independent oracles.

Every workload is a closed loop: one client, one process, one thread, and
the next sample is issued only when the previous one returns (the
simulator is a batch program, not a server).  A workload object owns its
state and exposes:

* ``build(clock)`` — make fresh state from the seed (timed as set-up);
* ``prepare(index)`` — the next sample's input (untimed);
* ``run(prepared)`` — the timed call into the repo's public entry points;
* ``check(prepared, output)`` — ``(ops, failed, work)`` against an oracle
  that shares no code with the path under test;
* ``digest(prepared, output)`` — canonical text of the simulated outputs;
* ``start_measure()`` / ``counters(ops)`` — public statistics read after
  the measured phase.

Sizes are constructor parameters so tests can build tiny instances.
"""

from __future__ import annotations

import itertools
import random
import sys
import traceback
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.classifier.datapath import OvsDatapath
from repro.classifier.flow import FlowMask, make_flow
from repro.classifier.rules import Action, Rule
from repro.core import HaloSystem
from repro.exec.cores import CoreWorkload
from repro.runner import registry
from repro.runner.scheduler import derive_seed
from repro.traffic import generator, profiles
from repro.vswitch.switch import SwitchMode, VirtualSwitch
from repro.workloads import ChurnEngine, ChurnSpec

from e2e_metrics import EXPERIMENTS

#: PaperChecks known to diverge in quick mode, by experiment.  Fig. 4's
#: quick grid stops at 10K flows, so its 100K-flow SFH LLC-miss check
#: reads 0.0 MPKL (a later fix belongs in the experiment, not here).
EXPECTED_DIVERGENCES = {"fig04": {"SFH LLC misses from 100K flows"}}

#: Backends of every ``lookup_512k`` sample, in order.
LOOKUP_BACKENDS = ("software", "halo-b", "halo-nb")
#: ``multicore_mixed``'s backend per core.
CORE_BACKENDS = ("software", "halo-nb", "software", "halo-nb")
#: ``vswitch_gateway``'s traffic profile (Figure 3).
GATEWAY_PROFILE = "many-flows-rules-1M"
#: Packets ``emc_churn`` draws at a time when a run gets past the ones
#: its set-up drew.
CHURN_TOP_UP = 1 << 14
#: ``experiments_quick`` hashes the points and reports of this many leading
#: experiments (10 grid points, about 2 s) into ``outputs_digest``.
DIGEST_EXPERIMENTS = 3

#: Counters every workload reports (0 where the layer is not used).
COUNTER_NAMES = (
    "hashtable.kicks_per_insert",
    "sim.l1_hit_ratio", "sim.llc_hit_ratio",
    "sim.replay.batches", "sim.replay.windows", "sim.replay.serial_fallbacks",
    "sim.engine.events_per_op",
    "classifier.emc_hit_ratio", "classifier.megaflow_hit_ratio",
    "classifier.upcall_ratio", "classifier.emc_evictions_per_op",
)


class RuleOracle:
    """Linear scan, highest priority first (ties: lowest rule id)."""

    def __init__(self, rules: Iterable[Rule]) -> None:
        self.rules = sorted(rules, key=lambda r: (-r.priority, r.rule_id))

    def action(self, flow) -> Optional[Action]:
        for rule in self.rules:
            if rule.mask.apply(flow) == rule.match:
                return rule.action
        return None


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _kicks_per_insert(table) -> float:
    return _ratio(table.stats.kicks, table.stats.inserts)


class _SimCounters:
    """Cache, engine and replay counters of one HaloSystem, as deltas from
    :meth:`start`."""

    def __init__(self, system: HaloSystem) -> None:
        self.system = system
        self.before = self._read()

    def _read(self) -> Dict[str, float]:
        hierarchy = self.system.hierarchy
        snapshot = self.system.obs.metrics.snapshot()
        return {
            "l1_hits": sum(c.stats.hits for c in hierarchy.l1),
            "l1_misses": sum(c.stats.misses for c in hierarchy.l1),
            "llc_hits": sum(c.stats.hits for c in hierarchy.llc),
            "llc_misses": sum(c.stats.misses for c in hierarchy.llc),
            "events": self.system.engine.events_processed,
            "batches": snapshot.get("replay.batches", 0),
            "windows": snapshot.get("replay.windows", 0),
            "fallbacks": sum(value for name, value in snapshot.items()
                             if name.startswith("replay.fallback.")),
        }

    def deltas(self, ops: int) -> Dict[str, float]:
        now = self._read()
        d = {key: now[key] - self.before[key] for key in now}
        return {
            "sim.l1_hit_ratio": _ratio(d["l1_hits"],
                                       d["l1_hits"] + d["l1_misses"]),
            "sim.llc_hit_ratio": _ratio(d["llc_hits"],
                                        d["llc_hits"] + d["llc_misses"]),
            "sim.replay.batches": d["batches"],
            "sim.replay.windows": d["windows"],
            "sim.replay.serial_fallbacks": d["fallbacks"],
            "sim.engine.events_per_op": _ratio(d["events"], ops),
        }


class Workload:
    """Shared defaults; see the module docstring for the protocol."""

    name = ""
    #: What one operation is, for the README and the result file.
    op = ""
    #: Samples whose outputs enter ``outputs_digest``.
    digest_samples = 64
    #: The percentile ``op_us_tail`` reports.  p99 would have ten samples
    #: beyond it, but garbage-collection pauses land in a few percent of
    #: samples, so p99 sits on that edge and spreads up to 17% run to run.
    tail_q = 0.95
    #: A :class:`~e2e_spans.SpanRecorder` in traced runs, else ``None``.
    recorder = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def discard(self) -> None:
        """Drop built state so the next build starts from nothing."""
        for attr in list(vars(self)):
            if attr not in ("seed", "_sizes", "recorder"):
                delattr(self, attr)

    def tag(self, prepared) -> str:
        """What a sample belongs to, for per-part shares ('' = nothing)."""
        return ""

    def start_measure(self) -> None:
        pass

    def counters(self, ops: int) -> Dict[str, float]:
        return {}


class LookupWorkload(Workload):
    """Uniform lookups in a 2^19-entry table, above Figure 9's 2^18 cap, at
    Figure 9's lowest occupancy (25%), through the software, blocking and
    non-blocking HALO backends."""

    name = "lookup_512k"
    op = "lookup"

    def __init__(self, seed: int, entries: int = 1 << 19,
                 fill: int = 1 << 17, chunk: int = 16) -> None:
        super().__init__(seed)
        self._sizes = (entries, fill, chunk)

    def build(self, clock) -> None:
        entries, fill, _chunk = self._sizes
        system = HaloSystem()
        table = system.create_table(entries, name="e2e_lookup")
        keys = generator.random_keys(fill, seed=self.seed)
        clock.maybe_sample()
        expected = {}
        for index, key in enumerate(keys):
            if table.insert(key, index):
                expected[key] = index
            if not index & 1023:
                clock.maybe_sample()
        clock.maybe_sample()
        system.warm_table(table)
        clock.maybe_sample()
        system.hierarchy.flush_private(0)
        self.system, self.table, self.expected = system, table, expected
        self.inserted = list(expected)
        self.rng = random.Random(self.seed)

    def prepare(self, index: int) -> List[bytes]:
        inserted, draw = self.inserted, self.rng.randrange
        return [inserted[draw(len(inserted))] for _ in range(self._sizes[2])]

    def run(self, keys: List[bytes]):
        system, table = self.system, self.table
        return [system.run_backend_lookups(kind, table, keys)
                for kind in LOOKUP_BACKENDS]

    def check(self, keys, episodes) -> Tuple[int, int, float]:
        expected = self.expected
        failed = sum(1 for episode in episodes
                     for key, outcome in zip(keys, episode.results)
                     if not outcome.found or outcome.value != expected[key])
        ops = len(keys) * len(episodes)
        return ops, failed, ops

    def digest(self, keys, episodes) -> str:
        return repr([(episode.cycles, [o.value for o in episode.results])
                     for episode in episodes])

    def start_measure(self) -> None:
        self.sim = _SimCounters(self.system)

    def counters(self, ops: int) -> Dict[str, float]:
        out = self.sim.deltas(ops)
        out["hashtable.kicks_per_insert"] = _kicks_per_insert(self.table)
        return out


def _switch_counters(stats_before, stats_now, evictions: int,
                     ops: int) -> Dict[str, float]:
    hits = {layer: stats_now.get(layer, 0) - stats_before.get(layer, 0)
            for layer in ("emc", "megaflow", "openflow", "miss")}
    return {
        "classifier.emc_hit_ratio": _ratio(hits["emc"], ops),
        "classifier.megaflow_hit_ratio": _ratio(hits["megaflow"], ops),
        "classifier.upcall_ratio": _ratio(hits["openflow"] + hits["miss"],
                                          ops),
        "classifier.emc_evictions_per_op": _ratio(evictions, ops),
    }


class GatewayWorkload(Workload):
    """The Figure 3 gateway profile through the software virtual switch,
    one packet per sample."""

    name = "vswitch_gateway"
    op = "packet"
    digest_samples = 256

    def __init__(self, seed: int, flows: int = 40_000,
                 warmup: int = 1_000) -> None:
        super().__init__(seed)
        self._sizes = (flows, warmup)

    def build(self, clock) -> None:
        flows, warmup = self._sizes
        profile = profiles.profile_by_name(GATEWAY_PROFILE)
        flow_set = generator.FlowSet.generate(flows, seed=self.seed,
                                              groups=profile.num_rules)
        clock.maybe_sample()
        rules = profile.build_rules(flow_set)
        system = HaloSystem()
        switch = VirtualSwitch(system, SwitchMode.SOFTWARE,
                               megaflow_tuple_capacity=1 << 16)
        switch.install_rules(rules)
        clock.maybe_sample()
        switch.prewarm_megaflows(flow_set.flows)
        clock.maybe_sample()
        switch.warm()
        clock.maybe_sample()
        stream = generator.PacketStream(flow_set, zipf_s=profile.zipf_s,
                                        seed=self.seed)
        for flow in stream.take(warmup):
            switch.process_flow(flow)
            clock.maybe_sample()
        self.system, self.switch, self.stream = system, switch, stream
        self.oracle = RuleOracle(rules)

    def prepare(self, index: int):
        return self.stream.next_flow()

    def run(self, flow):
        return self.switch.process_flow(flow)

    def check(self, flow, record) -> Tuple[int, int, float]:
        rule = record.classification.rule
        ok = rule is not None and rule.action == self.oracle.action(flow)
        return 1, 0 if ok else 1, 1

    def digest(self, flow, record) -> str:
        return f"{record.classification.layer.value}:{record.cycles!r}"

    def start_measure(self) -> None:
        self.sim = _SimCounters(self.system)
        self.hits_before = dict(self.switch.stats.layer_hits)
        self.evictions_before = self.switch.emc.stats.evictions

    def counters(self, ops: int) -> Dict[str, float]:
        out = self.sim.deltas(ops)
        switch = self.switch
        out.update(_switch_counters(
            self.hits_before, switch.stats.layer_hits,
            switch.emc.stats.evictions - self.evictions_before, ops))
        out["hashtable.kicks_per_insert"] = _kicks_per_insert(
            switch.emc.table)
        return out


def service_rules(groups: int) -> List[Rule]:
    """One dst-/16 + dst-port rule per service group, plus a catch-all."""
    mask = FlowMask.prefixes(src_prefix=0, dst_prefix=16, src_port=False,
                             dst_port=True, proto=False)
    rules = [Rule(mask=mask, match=mask.apply(make_flow(0, group=group)),
                  action=Action.output(group % 8), priority=groups - group)
             for group in range(groups)]
    catch_all = FlowMask.prefixes(src_prefix=0, dst_prefix=0, src_port=False,
                                  dst_port=False, proto=False)
    rules.append(Rule(mask=catch_all, match=catch_all.apply(make_flow(0)),
                      action=Action.output(0), priority=0))
    return rules


class ChurnWorkload(Workload):
    """SYN-flood churn through an engine-free datapath with an LRU EMC.

    Every flood packet is a new exact-match key, so the EMC installs and
    evicts all run long and every upcall installs a megaflow.  The megaflow
    tuples hold 2^18 entries, more than a run installs: a full tuple would
    make each later install a failing 100-deep kick search, and the cost
    per packet would depend on how far a run got.  No ``repro.sim`` layer
    runs: a simulator-only change must leave it unchanged.

    Set-up draws ``packets`` packets of one endless stream, more than a
    run on the reference host classifies (drawing them between samples
    would load the samples' garbage collections).  A faster run draws
    further packets of the same stream, never ones the caches have seen,
    so every run times a prefix of the same traffic.
    """

    name = "emc_churn"
    op = "packet"

    def __init__(self, seed: int, packets: int = 250_000,
                 warmup: int = 20_000, per_sample: int = 50) -> None:
        super().__init__(seed)
        self._sizes = (packets, warmup, per_sample)

    def build(self, clock) -> None:
        count, warmup, _per_sample = self._sizes
        spec = ChurnSpec.syn_flood(seed=self.seed)
        stream = ChurnEngine(spec).packets(sys.maxsize)
        packets = []
        for index, flow in enumerate(itertools.islice(stream, count)):
            packets.append(flow)
            if not index & 1023:
                clock.maybe_sample()
        datapath = OvsDatapath(megaflow_tuple_capacity=1 << 18,
                               emc_policy="lru")
        rules = service_rules(spec.groups)
        for rule in rules:
            datapath.install_rule(rule)
        for index, flow in enumerate(packets[:warmup]):
            datapath.classify(flow)
            if not index & 1023:
                clock.maybe_sample()
        self.stream, self.packets, self.datapath = stream, packets, datapath
        self.oracle = RuleOracle(rules)

    def prepare(self, index: int):
        _count, warmup, per_sample = self._sizes
        start = warmup + index * per_sample
        packets = self.packets
        while len(packets) < start + per_sample:
            packets += itertools.islice(self.stream, CHURN_TOP_UP)
        return packets[start:start + per_sample]

    def run(self, batch):
        classify = self.datapath.classify
        return [classify(flow) for flow in batch]

    def check(self, batch, results) -> Tuple[int, int, float]:
        action = self.oracle.action
        failed = sum(1 for flow, result in zip(batch, results)
                     if result.rule is None
                     or result.rule.action != action(flow))
        return len(batch), failed, len(batch)

    def digest(self, batch, results) -> str:
        return "".join(result.layer.value[0] for result in results)

    def start_measure(self) -> None:
        stats = self.datapath.stats
        self.hits_before = self._layer_hits(stats)
        self.evictions_before = self.datapath.emc.stats.evictions

    @staticmethod
    def _layer_hits(stats) -> Dict[str, int]:
        return {"emc": stats.emc_hits, "megaflow": stats.megaflow_hits,
                "openflow": stats.openflow_hits, "miss": stats.misses}

    def counters(self, ops: int) -> Dict[str, float]:
        datapath = self.datapath
        out = _switch_counters(
            self.hits_before, self._layer_hits(datapath.stats),
            datapath.emc.stats.evictions - self.evictions_before, ops)
        out["hashtable.kicks_per_insert"] = _kicks_per_insert(
            datapath.emc.table)
        return out


class MulticoreWorkload(Workload):
    """Four cores on one HaloSystem, software and non-blocking HALO
    streams interleaved on the shared engine."""

    name = "multicore_mixed"
    op = "lookup"

    def __init__(self, seed: int, entries: int = 4096,
                 keys_per_sample: int = 10) -> None:
        super().__init__(seed)
        self._sizes = (entries, keys_per_sample)

    def build(self, clock) -> None:
        entries, _per_sample = self._sizes
        system = HaloSystem()
        self.tables, self.expected, self.inserted = [], [], []
        for core in range(len(CORE_BACKENDS)):
            table = system.create_table(entries, name=f"e2e_core{core}")
            keys = generator.random_keys(entries // 2,
                                         seed=self.seed * 64 + core)
            expected = {}
            for index, key in enumerate(keys):
                if table.insert(key, index):
                    expected[key] = index
            system.warm_table(table)
            clock.maybe_sample()
            self.tables.append(table)
            self.expected.append(expected)
            self.inserted.append(list(expected))
        self.system = system
        self.rng = random.Random(self.seed)

    def prepare(self, index: int) -> List[List[bytes]]:
        draw, per_sample = self.rng.randrange, self._sizes[1]
        return [[keys[draw(len(keys))] for _ in range(per_sample)]
                for keys in self.inserted]

    def run(self, chunks):
        workloads = [CoreWorkload(backend=kind, core_id=core,
                                  table=self.tables[core], keys=chunks[core],
                                  stream=True)
                     for core, kind in enumerate(CORE_BACKENDS)]
        return self.system.run_cores(workloads)

    def check(self, chunks, result) -> Tuple[int, int, float]:
        failed = ops = 0
        for core, keys in enumerate(chunks):
            expected = self.expected[core]
            outcomes = result.by_core(core).result
            ops += len(keys)
            if len(outcomes) != len(keys):
                failed += len(keys)
                continue
            failed += sum(1 for key, outcome in zip(keys, outcomes)
                          if not outcome.found
                          or outcome.value != expected[key])
        return ops, failed, ops

    def digest(self, chunks, result) -> str:
        return repr([(r.core_id, r.cycles) for r in result.results])

    def start_measure(self) -> None:
        self.sim = _SimCounters(self.system)

    def counters(self, ops: int) -> Dict[str, float]:
        out = self.sim.deltas(ops)
        out["hashtable.kicks_per_insert"] = _ratio(
            sum(t.stats.kicks for t in self.tables),
            sum(t.stats.inserts for t in self.tables))
        return out


class ExperimentsWorkload(Workload):
    """Quick-grid points of registered experiments, one per sample.

    The experiments of :data:`EXPERIMENTS` run whole, in registry order,
    then again until the run ends; each finished experiment's report is
    checked for divergent PaperChecks.  The registry pins every point's
    seed, so ``--seed`` changes nothing.  Points differ in cost by three
    orders of magnitude, so each counts as ``work`` equal to its reference
    time over the mean reference time (``reference.json``): the rate then
    does not depend on where a run stopped.  Set-up is importing and
    discovering the experiment modules.
    """

    name = "experiments_quick"
    op = "grid point"
    digest_samples = 0  # set by build(): see DIGEST_EXPERIMENTS
    tail_q = 0.75  # a run measures about 45 grid points: ten beyond p75

    def __init__(self, seed: int, point_s: Optional[Dict[str, float]] = None,
                 only: Sequence[str] = EXPERIMENTS) -> None:
        super().__init__(seed)
        self._sizes = (dict(point_s or {}), tuple(only))

    def build(self, clock) -> None:
        point_s, only = self._sizes
        package = registry.EXPERIMENTS_PACKAGE
        for module_name in [name for name in sys.modules
                            if name.startswith(package)]:
            del sys.modules[module_name]
        specs = registry.discover(refresh=True)
        clock.maybe_sample()
        queue = []
        for name in (name for name in specs if name in only):
            points = specs[name].points(quick=True)
            for position, (label, params) in enumerate(points):
                queue.append((specs[name], label, params,
                              position == len(points) - 1))
        keys = [f"{spec.name}/{label}" for spec, label, _p, _l in queue]
        known = [point_s[key] for key in keys if key in point_s]
        mean = sum(known) / len(known) if known else 1.0
        self.weights = {key: point_s.get(key, mean) / mean for key in keys}
        self.queue = queue
        self.payloads: Dict[str, dict] = {}
        leading = list(dict.fromkeys(spec.name for spec, *_ in queue))
        leading = set(leading[:DIGEST_EXPERIMENTS])
        self.digest_samples = sum(1 for spec, *_ in queue
                                  if spec.name in leading)

    def prepare(self, index: int):
        return self.queue[index % len(self.queue)]

    def tag(self, item) -> str:
        return item[0].name

    def run(self, item):
        spec, label, params, last = item
        call = self.recorder.call if self.recorder else _plain_call
        try:
            payloads = self.payloads.setdefault(spec.name, {})
            payloads[label] = call(f"analysis.{spec.name}", "analysis",
                                   spec.run, label, params,
                                   derive_seed(spec.name, label))
            if last:
                text = call(f"analysis.{spec.name}", "analysis", spec.report,
                            self.payloads.pop(spec.name))
                return True, text
            return True, ""
        except Exception:  # a failing grid point is a counted failure
            self.payloads.pop(spec.name, None)
            return False, traceback.format_exc()

    def check(self, item, output) -> Tuple[int, int, float]:
        spec, label, _params, _last = item
        ok, text = output
        failed = 0 if ok and not self.divergences(spec.name, text) else 1
        return 1, failed, self.weights[f"{spec.name}/{label}"]

    @staticmethod
    def divergences(experiment: str, text: str) -> List[str]:
        """PaperCheck labels reported as DIVERGES and not expected."""
        expected = EXPECTED_DIVERGENCES.get(experiment, set())
        labels = [line.strip().split(": paper", 1)[0]
                  for line in text.splitlines() if "[DIVERGES]" in line]
        return [label for label in labels if label not in expected]

    def digest(self, item, output) -> str:
        return f"{item[0].name}/{item[1]}:{output[1]}"


def _plain_call(_name, _layer, fn, /, *args):
    return fn(*args)


WORKLOADS = {cls.name: cls for cls in (LookupWorkload, GatewayWorkload,
                                       ChurnWorkload, MulticoreWorkload,
                                       ExperimentsWorkload)}
