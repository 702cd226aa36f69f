"""``repro bench --perf`` — the pinned engine-performance microbench suite.

Public contract: seven microbenches track the simulator's own speed (not
the paper's modelled results) so every PR leaves a ``BENCH_<n>.json``
footprint in the perf trajectory:

* ``engine_churn`` — pure DES calendar stress: 16 worker processes
  ping-ponging through a short-delay latency mix while 10k far-future
  timeouts sit parked in the calendar.  Exercises schedule/pop/wake and
  nothing else.
* ``cache_replay`` — the software-lookup hot loop: thousands of lookups
  over a small hot key set on a warm table, one stream through windowed
  trace replay (:class:`repro.sim.replay.TraceReplay`).
* ``fig09_single_lookup`` — the serial lookup path (one trace captured,
  priced, and yielded per key — what faults, the guard and per-key
  programs run), sized like a Figure 9 grid point.
* ``multicore_step`` — several software cores interleaving on one shared
  engine via :func:`repro.exec.cores.run_cores`, one lookup per DES hop.
* ``multicore_batched`` — the same collocated shape but *streamed*:
  capture plus windowed replay between interaction points, against the
  same streams replayed serially (``serial_replay=True``) as its
  reference side.
* ``shard_scaling`` — the sharded-cluster path
  (:func:`repro.cluster.run_cluster`, inline dispatch): a 4-shard
  cluster over a fixed stream, against the same stream through one
  monolithic shard as the reference side.  Tracks the host cost of
  standing up and running N independent shard simulations.
* ``emc_churn`` — the cache-policy hot loop: the high-churn workload
  scenario (:class:`repro.workloads.churn.ChurnEngine`) streamed through
  a policy-driven :class:`repro.classifier.emc.ExactMatchCache`
  lookup/install loop.  Times packet generation plus admission/eviction
  book-keeping — the per-packet host cost the ``cache_churn`` experiment
  pays per cell.

``engine_churn`` and ``cache_replay`` also run on the *frozen
pre-campaign engine* vendored in :mod:`repro.runner._legacy_engine`;
``multicore_batched`` and ``shard_scaling`` time their reference shapes
in the same process.  All four record the ratio as
``speedup_vs_legacy``.  Because both sides execute in the same process
on the same host, that ratio is robust to machine speed in a way
absolute events/sec is not — it is the number the CI regression gate
trusts first.

Measurement protocol: ``time.process_time`` (immune to scheduler
preemption inflating wall time), interleaved repeats, min-of-N (the
minimum is the least-noise estimator for a deterministic workload).
Snapshots additionally carry a host calibration loop so absolute
numbers can be roughly normalised across machines.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

PERF_SCHEMA_VERSION = 5

#: Default location for committed snapshots (``BENCH_<n>.json``).
DEFAULT_PERF_DIR = "benchmarks/perf"

#: Names every snapshot must contain, in suite order.
BENCH_NAMES = ("engine_churn", "cache_replay", "fig09_single_lookup",
               "multicore_step", "multicore_batched", "shard_scaling",
               "emc_churn")

#: Required bench names per schema version.  Snapshots validate against
#: the schema they were written with, so the committed trajectory stays
#: checkable as the suite grows.
NAMES_BY_SCHEMA = {
    1: ("engine_churn", "cache_replay", "fig09_single_lookup",
        "multicore_step"),
    2: ("engine_churn", "cache_replay", "fig09_single_lookup",
        "multicore_step", "multicore_batched", "vector_pricing"),
    3: ("engine_churn", "cache_replay", "fig09_single_lookup",
        "multicore_step", "multicore_batched", "vector_pricing",
        "shard_scaling"),
    4: ("engine_churn", "cache_replay", "fig09_single_lookup",
        "multicore_step", "multicore_batched", "vector_pricing",
        "shard_scaling", "emc_churn"),
    5: BENCH_NAMES,
}


# ---------------------------------------------------------------------------
# measurement core


@dataclass
class BenchResult:
    """One microbench's measured numbers (the ``benches.<name>`` record)."""

    name: str
    events: int                 # engine events processed (current engine)
    lookups: int                # table lookups performed (0 if N/A)
    cycles: float               # simulated cycles elapsed
    wall_s: float               # best-of-N process time, current engine
    legacy_wall_s: Optional[float] = None   # reference side: same workload
                                            # on the frozen engine or in the
                                            # bench's slow mode
    repeats: int = 1

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s else 0.0

    @property
    def lookups_per_sec(self) -> Optional[float]:
        if not self.lookups:
            return None
        return self.lookups / self.wall_s if self.wall_s else 0.0

    @property
    def speedup_vs_legacy(self) -> Optional[float]:
        if self.legacy_wall_s is None or not self.wall_s:
            return None
        return self.legacy_wall_s / self.wall_s

    def to_json_dict(self, calibration: float) -> Dict[str, object]:
        return {
            "name": self.name,
            "events": self.events,
            "lookups": self.lookups,
            "cycles": self.cycles,
            "wall_s": self.wall_s,
            "legacy_wall_s": self.legacy_wall_s,
            "repeats": self.repeats,
            "events_per_sec": self.events_per_sec,
            "lookups_per_sec": self.lookups_per_sec,
            "speedup_vs_legacy": self.speedup_vs_legacy,
            # Host-normalised rate: events/sec divided by this host's
            # calibration ops/sec, so snapshots from different machines
            # land in the same ballpark.
            "events_per_cal_op": (self.events_per_sec / calibration
                                  if calibration else None),
        }


def _min_of(thunks: List[Callable[[], float]], repeats: int) -> List[float]:
    """Interleaved min-of-N over a list of timed thunks.

    Interleaving (A B A B ...) rather than batching (A A B B) means a
    transient host slowdown hits both sides instead of biasing one.
    Collection runs between timings, never during one — a cycle-GC pass
    landing inside a single run is the dominant noise source here.
    """
    import gc

    best = [float("inf")] * len(thunks)
    was_enabled = gc.isenabled()
    try:
        for _ in range(repeats):
            for index, thunk in enumerate(thunks):
                gc.collect()
                gc.disable()
                try:
                    elapsed = thunk()
                finally:
                    if was_enabled:
                        gc.enable()
                if elapsed < best[index]:
                    best[index] = elapsed
    finally:
        if was_enabled:
            gc.enable()
    return best


def host_calibration(spins: int = 1_000_000, repeats: int = 5) -> float:
    """Ops/sec of a fixed pure-Python loop — a crude host speed unit.

    Best-of-``repeats``: every normalised rate divides by this number,
    so one slow calibration pass would shift *all* benches in lockstep.
    Used only to *normalise* absolute rates across machines; same-host
    comparisons (the CI gate, ``speedup_vs_legacy``) never consult it.
    """
    best = float("inf")
    for _ in range(repeats):
        accumulator = 0
        t0 = time.process_time()
        for value in range(spins):
            accumulator += value & 7
        elapsed = time.process_time() - t0
        del accumulator
        if elapsed < best:
            best = elapsed
    return spins / best if best else 0.0


# ---------------------------------------------------------------------------
# the microbenches


@dataclass
class _Shape:
    """Workload sizes for one suite flavour (full vs ``--quick``)."""

    churn_workers: int
    churn_hops: int
    churn_parked: int
    replay_lookups: int
    fig09_lookups: int
    multicore_cores: int
    multicore_lookups: int
    repeats: int
    #: Per-core stream length for ``multicore_batched`` (sized separately
    #: from ``multicore_lookups``: batching needs longer streams before
    #: its fixed costs amortise).
    batched_lookups: int = 400
    #: Cluster geometry + stream volume for ``shard_scaling``.
    shard_count: int = 4
    shard_flows: int = 128
    shard_lookups: int = 2000
    #: Churn-stream volume + EMC capacity for ``emc_churn``.
    emc_churn_packets: int = 20_000
    emc_churn_entries: int = 512


FULL_SHAPE = _Shape(churn_workers=16, churn_hops=2000, churn_parked=10_000,
                    replay_lookups=8000, fig09_lookups=2000,
                    multicore_cores=4, multicore_lookups=400, repeats=5,
                    batched_lookups=800, shard_count=4, shard_flows=128, shard_lookups=2000,
                    emc_churn_packets=20_000, emc_churn_entries=512)
# Quick walls must stay >= ~50ms per bench: the CI gate compares rates
# from this flavour, and few-millisecond timings swing tens of percent.
# "Quick" trims repeats and lookup volume, not workload character.
QUICK_SHAPE = _Shape(churn_workers=16, churn_hops=2000, churn_parked=10_000,
                     replay_lookups=4000, fig09_lookups=800,
                     multicore_cores=2, multicore_lookups=200, repeats=3,
                     batched_lookups=800, shard_count=4, shard_flows=128, shard_lookups=1000,
                     emc_churn_packets=10_000, emc_churn_entries=256)

#: Latency mix the churn workers cycle through: L1 / L2 / LLC / DRAM-ish.
_CHURN_LATENCIES = (4, 12, 40, 200)


def _churn_workload(engine_module, workers: int, hops: int,
                    parked: int) -> Tuple[float, float, int]:
    """Run the churn workload on ``engine_module.Engine``; return
    (process_time, engine.now, events_processed)."""
    engine = engine_module.Engine()
    latencies = _CHURN_LATENCIES

    def worker(offset: int):
        index = offset
        count = len(latencies)
        for _ in range(hops):
            yield engine.timeout(latencies[index % count])
            index += 1

    def parker():
        # Park far-future timeouts so the calendar stays deep the whole
        # run — the overflow/far-future path must not decay pop cost.
        for k in range(parked):
            engine.timeout(50_000_000 + k)
        return
        yield  # pragma: no cover - makes this a generator

    t0 = time.process_time()
    engine.process(parker())
    for offset in range(workers):
        engine.process(worker(offset))
    engine.run()
    elapsed = time.process_time() - t0
    return elapsed, engine.now, engine.events_processed


def bench_engine_churn(shape: _Shape) -> BenchResult:
    from . import _legacy_engine
    from ..sim import engine as live_engine

    current: Dict[str, float] = {}

    def run_current() -> float:
        elapsed, now, events = _churn_workload(
            live_engine, shape.churn_workers, shape.churn_hops,
            shape.churn_parked)
        current["now"], current["events"] = now, events
        return elapsed

    def run_legacy() -> float:
        elapsed, _now, _events = _churn_workload(
            _legacy_engine, shape.churn_workers, shape.churn_hops,
            shape.churn_parked)
        return elapsed

    wall, legacy_wall = _min_of([run_current, run_legacy], shape.repeats)
    return BenchResult(name="engine_churn", events=int(current["events"]),
                       lookups=0, cycles=current["now"], wall_s=wall,
                       legacy_wall_s=legacy_wall, repeats=shape.repeats)


def _replay_setup(lookups: int, entries: int = 64, hot: int = 32):
    """A warm capacity-256 table plus a hot-key stream (L1-resident)."""
    import random

    from ..core import HaloSystem

    rng = random.Random(29)
    system = HaloSystem()
    table = system.create_table(256, name="perf_replay")
    inserted = []
    for index in range(entries):
        key = rng.randbytes(16)
        if table.insert(key, index):
            inserted.append(key)
    system.warm_table(table)
    hot_keys = inserted[:hot]
    keys = [hot_keys[rng.randrange(len(hot_keys))] for _ in range(lookups)]
    software = system.software_engine(0)
    for key in hot_keys:            # pull the hot set into L1
        software.lookup(table, key)
    return system, table, keys


def bench_cache_replay(shape: _Shape) -> BenchResult:
    """Windowed replay vs the same lookups composed on the frozen engine."""
    from . import _legacy_engine
    from ..exec.backend import LookupOutcome

    current: Dict[str, float] = {}

    def run_current() -> float:
        system, table, keys = _replay_setup(shape.replay_lookups)
        backend = system.backend("software")
        t0 = time.process_time()
        system.engine.run_process(backend.lookup_stream(table, keys))
        elapsed = time.process_time() - t0
        current["now"] = system.engine.now
        current["events"] = system.engine.events_processed
        return elapsed

    def run_legacy() -> float:
        # Faithful pre-campaign composition: one sub-generator per key,
        # one timeout per priced trace, on the vendored engine.
        system, table, keys = _replay_setup(shape.replay_lookups)
        software = system.software_engine(0)
        engine = _legacy_engine.Engine()

        def legacy_lookup(key):
            value, result = software.lookup(table, key)
            if result.cycles:
                yield engine.timeout(result.cycles)
            return LookupOutcome(value=value, found=value is not None,
                                 cycles=result.cycles)

        def legacy_stream():
            outcomes = []
            for key in keys:
                outcome = yield from legacy_lookup(key)
                outcomes.append(outcome)
            return outcomes

        t0 = time.process_time()
        engine.run_process(legacy_stream())
        return time.process_time() - t0

    wall, legacy_wall = _min_of([run_current, run_legacy], shape.repeats)
    return BenchResult(name="cache_replay", events=int(current["events"]),
                       lookups=shape.replay_lookups, cycles=current["now"],
                       wall_s=wall, legacy_wall_s=legacy_wall,
                       repeats=shape.repeats)


def bench_fig09_single_lookup(shape: _Shape) -> BenchResult:
    """The serial (model-of-record) lookup path at Figure 9 table scale."""
    from ..traffic.generator import random_keys

    current: Dict[str, float] = {}

    def run_current() -> float:
        from ..core import HaloSystem

        system = HaloSystem()
        table = system.create_table(1 << 12, name="perf_fig09")
        keys = random_keys(1 << 11, seed=17)
        for index, key in enumerate(keys):
            table.insert(key, index)
        system.warm_table(table)
        stream = [keys[i % len(keys)] for i in range(shape.fig09_lookups)]
        t0 = time.process_time()
        system.run_backend_lookups("software", table, stream,
                                   serial_replay=True)
        elapsed = time.process_time() - t0
        current["now"] = system.engine.now
        current["events"] = system.engine.events_processed
        return elapsed

    (wall,) = _min_of([run_current], shape.repeats)
    return BenchResult(name="fig09_single_lookup",
                       events=int(current["events"]),
                       lookups=shape.fig09_lookups, cycles=current["now"],
                       wall_s=wall, repeats=shape.repeats)


def bench_multicore_step(shape: _Shape) -> BenchResult:
    """Several software cores interleaving on one shared engine."""
    from ..traffic.generator import random_keys

    current: Dict[str, float] = {}

    def run_current() -> float:
        from ..core import HaloSystem
        from ..exec.cores import CoreWorkload

        system = HaloSystem()
        table = system.create_table(1 << 10, name="perf_multicore")
        keys = random_keys(512, seed=31)
        for index, key in enumerate(keys):
            table.insert(key, index)
        system.warm_table(table)
        per_core = shape.multicore_lookups

        def worker(backend, offset: int):
            for i in range(per_core):
                yield from backend.lookup(table, keys[(offset + i)
                                                      % len(keys)])
            return per_core

        workloads = [
            CoreWorkload(backend="software", core_id=core,
                         program=lambda backend, core=core: worker(
                             backend, core * 97),
                         name=f"perf{core}")
            for core in range(shape.multicore_cores)
        ]
        t0 = time.process_time()
        system.run_cores(workloads)
        elapsed = time.process_time() - t0
        current["now"] = system.engine.now
        current["events"] = system.engine.events_processed
        return elapsed

    (wall,) = _min_of([run_current], shape.repeats)
    return BenchResult(name="multicore_step", events=int(current["events"]),
                       lookups=shape.multicore_cores
                       * shape.multicore_lookups,
                       cycles=current["now"], wall_s=wall,
                       repeats=shape.repeats)


def bench_multicore_batched(shape: _Shape) -> BenchResult:
    """Streamed collocated cores: windowed replay vs per-key hops.

    Both sides run on the *live* engine over the identical streamed
    workload — the reference side simply builds its backends with
    ``serial_replay=True`` — so ``speedup_vs_legacy`` isolates exactly
    what the windowed replay buys concurrent software cores.
    """
    from ..traffic.generator import random_keys

    current: Dict[str, float] = {}

    def _run(windowed: bool) -> Tuple[float, float, int]:
        from ..core import HaloSystem
        from ..exec.cores import CoreWorkload

        system = HaloSystem()
        table = system.create_table(1 << 10, name="perf_mc_batched")
        keys = random_keys(512, seed=37)
        for index, key in enumerate(keys):
            table.insert(key, index)
        system.warm_table(table)
        per_core = shape.batched_lookups
        workloads = [
            CoreWorkload(backend="software", core_id=core, table=table,
                         keys=[keys[(core * 97 + i) % len(keys)]
                               for i in range(per_core)],
                         stream=True,
                         backend_kwargs={"serial_replay": not windowed},
                         name=f"perfb{core}")
            for core in range(shape.multicore_cores)
        ]
        t0 = time.process_time()
        system.run_cores(workloads)
        elapsed = time.process_time() - t0
        return elapsed, system.engine.now, system.engine.events_processed

    def run_current() -> float:
        elapsed, now, events = _run(True)
        current["now"], current["events"] = now, events
        return elapsed

    def run_legacy() -> float:
        elapsed, _now, _events = _run(False)
        return elapsed

    wall, legacy_wall = _min_of([run_current, run_legacy], shape.repeats)
    return BenchResult(name="multicore_batched",
                       events=int(current["events"]),
                       lookups=shape.multicore_cores
                       * shape.batched_lookups,
                       cycles=current["now"], wall_s=wall,
                       legacy_wall_s=legacy_wall, repeats=shape.repeats)


def bench_shard_scaling(shape: _Shape) -> BenchResult:
    """Host cost of a sharded cluster vs one monolithic shard.

    Both sides run the identical stream through
    :func:`repro.cluster.run_cluster` with *inline* dispatch (no child
    processes — this times the simulations, not ``fork``): the current
    side splits it over ``shape.shard_count`` single-socket shards, the
    reference side runs one monolithic shard.  Same host, same stream,
    so ``speedup_vs_legacy`` tracks what per-shard setup and the split
    streams cost (or save) the simulator itself.
    """
    # Function-local import: runner sits below cluster in the layering
    # (cluster *uses* the pool), so the dependency stays call-time only.
    from ..cluster import ClusterConfig, run_cluster

    current: Dict[str, float] = {}

    def _run(shards: int) -> Tuple[float, float, int]:
        config = ClusterConfig(shards=shards, flows=shape.shard_flows,
                               lookups=shape.shard_lookups,
                               parallel=False, seed=53)
        t0 = time.process_time()
        result = run_cluster(config)
        elapsed = time.process_time() - t0
        return elapsed, result.makespan_cycles, result.total_lookups

    def run_current() -> float:
        elapsed, cycles, lookups = _run(shape.shard_count)
        current["cycles"], current["lookups"] = cycles, lookups
        return elapsed

    def run_legacy() -> float:
        elapsed, _cycles, _lookups = _run(1)
        return elapsed

    wall, legacy_wall = _min_of([run_current, run_legacy], shape.repeats)
    return BenchResult(name="shard_scaling",
                       events=int(current["lookups"]),
                       lookups=int(current["lookups"]),
                       cycles=current["cycles"], wall_s=wall,
                       legacy_wall_s=legacy_wall, repeats=shape.repeats)


def bench_emc_churn(shape: _Shape) -> BenchResult:
    """The cache-policy hot loop under the high-churn workload.

    Streams the ``high_churn`` scenario through a policy-driven EMC
    (LRU — the policy with per-packet book-keeping on both hits and
    installs, so the seam's overhead is fully exercised).  The timed
    loop covers packet generation, lookup, and install — the same
    per-packet host cost every ``cache_churn`` experiment cell pays.
    No engine runs here, so ``events`` counts packets and ``cycles``
    is zero.
    """
    from ..classifier.emc import ExactMatchCache
    from ..classifier.flow import FlowMask, make_flow
    from ..classifier.rules import Action, Rule
    from ..workloads import ChurnEngine, ChurnSpec

    rule = Rule(mask=FlowMask.exact(), match=make_flow(0),
                action=Action.output(0))

    def run_current() -> float:
        emc = ExactMatchCache(shape.emc_churn_entries, policy="lru")
        engine = ChurnEngine(ChurnSpec.high_churn(seed=41))
        t0 = time.process_time()
        for flow in engine.packets(shape.emc_churn_packets):
            if emc.lookup(flow) is None:
                emc.install(flow, rule)
        return time.process_time() - t0

    (wall,) = _min_of([run_current], shape.repeats)
    return BenchResult(name="emc_churn", events=shape.emc_churn_packets,
                       lookups=shape.emc_churn_packets, cycles=0.0,
                       wall_s=wall, repeats=shape.repeats)


_BENCHES: Dict[str, Callable[[_Shape], BenchResult]] = {
    "engine_churn": bench_engine_churn,
    "cache_replay": bench_cache_replay,
    "fig09_single_lookup": bench_fig09_single_lookup,
    "multicore_step": bench_multicore_step,
    "multicore_batched": bench_multicore_batched,
    "shard_scaling": bench_shard_scaling,
    "emc_churn": bench_emc_churn,
}
assert tuple(_BENCHES) == BENCH_NAMES


# ---------------------------------------------------------------------------
# suite driver + snapshot I/O


def run_perf_suite(quick: bool = False,
                   progress: Optional[Callable[[str], None]] = None,
                   ) -> Dict[str, object]:
    """Run the pinned suite; return the snapshot dict (see schema above)."""
    from .cache import code_fingerprint

    shape = QUICK_SHAPE if quick else FULL_SHAPE
    calibration = host_calibration()
    benches: Dict[str, Dict[str, object]] = {}
    for name in BENCH_NAMES:
        if progress:
            progress(f"perf: {name} ...")
        result = _BENCHES[name](shape)
        benches[name] = result.to_json_dict(calibration)
        if progress:
            rate = result.events_per_sec
            speed = result.speedup_vs_legacy
            suffix = f", {speed:.2f}x vs legacy" if speed else ""
            progress(f"perf: {name}: {rate:,.0f} events/s "
                     f"({result.wall_s:.3f}s{suffix})")
    return {
        "schema_version": PERF_SCHEMA_VERSION,
        "fingerprint": code_fingerprint(),
        "quick": quick,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "calibration_ops_per_sec": calibration,
        },
        "benches": benches,
    }


def next_snapshot_path(directory) -> pathlib.Path:
    """First free ``BENCH_<n>.json`` under ``directory``."""
    out_dir = pathlib.Path(directory)
    n = 0
    while (out_dir / f"BENCH_{n}.json").exists():
        n += 1
    return out_dir / f"BENCH_{n}.json"


def write_snapshot(snapshot: Dict[str, object], directory,
                   path: Optional[pathlib.Path] = None) -> pathlib.Path:
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = pathlib.Path(path) if path else next_snapshot_path(out_dir)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


def validate_snapshot(snapshot: Dict[str, object]) -> List[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    version = snapshot.get("schema_version")
    if version not in NAMES_BY_SCHEMA:
        problems.append("schema_version mismatch")
    if not isinstance(snapshot.get("fingerprint"), str):
        problems.append("missing fingerprint")
    host = snapshot.get("host")
    if not isinstance(host, dict) or "calibration_ops_per_sec" not in host:
        problems.append("missing host calibration")
    benches = snapshot.get("benches")
    if not isinstance(benches, dict):
        problems.append("missing benches")
        return problems
    for name in NAMES_BY_SCHEMA.get(version, BENCH_NAMES):
        record = benches.get(name)
        if not isinstance(record, dict):
            problems.append(f"missing bench {name!r}")
            continue
        for key in ("events", "wall_s", "events_per_sec", "cycles",
                    "lookups", "repeats"):
            if key not in record:
                problems.append(f"{name}: missing {key!r}")
        if record.get("events", 0) <= 0:
            problems.append(f"{name}: no events processed")
        if record.get("wall_s", 0) <= 0:
            problems.append(f"{name}: non-positive wall time")
    return problems


def compare_snapshots(baseline: Dict[str, object],
                      candidate: Dict[str, object],
                      threshold: float = 0.25) -> List[str]:
    """CI regression gate: candidate vs committed baseline.

    Per bench, prefer ``speedup_vs_legacy`` (same-host relative, noise
    immune) and fall back to host-normalised events/sec.  A bench fails
    when its metric drops more than ``threshold`` below the baseline.
    Returns failure descriptions (empty = gate passes).
    """
    failures: List[str] = []
    base_benches = baseline.get("benches", {})
    cand_benches = candidate.get("benches", {})
    for name in BENCH_NAMES:
        base = base_benches.get(name)
        cand = cand_benches.get(name)
        if not base or not cand:
            failures.append(f"{name}: missing from "
                            f"{'baseline' if not base else 'candidate'}")
            continue
        if base.get("speedup_vs_legacy") and cand.get("speedup_vs_legacy"):
            metric = "speedup_vs_legacy"
        else:
            metric = "events_per_cal_op"
        base_value = base.get(metric) or 0.0
        cand_value = cand.get(metric) or 0.0
        if not base_value:
            continue
        drop = 1.0 - cand_value / base_value
        if drop > threshold:
            failures.append(
                f"{name}: {metric} regressed {drop:.0%} "
                f"({base_value:.3g} -> {cand_value:.3g}; "
                f"threshold {threshold:.0%})")
    return failures
