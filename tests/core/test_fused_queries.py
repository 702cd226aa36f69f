"""Fused HALO queries: one engine step, the per-stage path's every effect.

A ``LOOKUP_B``, or a ``lookup_batch`` chunk of up to eight ``LOOKUP_NB``
queries to one table, that starts on an otherwise idle engine runs as a
plain call on a local clock and spends one timeout (:mod:`repro.core.isa`).
Each seeded mix below runs twice: with the defaults, and with
``Engine.next_event_time`` capped so that every query and chunk sees a
busy engine and yields per stage.  The two runs must agree on the end
time, every outcome and result, the observability export, every cache
set's lines in LRU order with their state bits, and every component's
stats.

The mixes interleave ``halo-b``, ``halo-nb`` and ``software`` streams over
three tables with 8- to 64-byte keys (one to eight hash lanes), absent
keys, tables that are LLC-resident or flushed, and a result region that
is flushed before some batches, so a chunk's first result write goes to
DRAM and later queries finish first.  Issue and poll costs vary per mix,
so arrivals and polls land on completion cycles.  Some batches stage
their keys on the result line they write, so a query's key fetch reads
the line the query before it wrote.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core import HaloSystem
from repro.core.isa import METRIC_FALLBACK_BUSY, RESULTS_PER_LINE, IssueCosts
from repro.sim.engine import Engine

from ..conftest import make_keys

MIX_SEEDS = range(16)
STREAMS = 48
KEY_BYTES = (8, 16, 32, 64)
#: Cap on the horizon ``next_event_time`` reports in the per-stage run.
HORIZON_CAP = 500.0


def _result_lines(isa, count: int):
    """The result lines the next ``count`` keys' chunks will write
    (``HaloIsa.result_line``'s arithmetic, read ahead)."""
    region = isa._result_region
    slot = isa._next_slot
    lines = []
    for _ in range(0, count, RESULTS_PER_LINE):
        line = (slot + RESULTS_PER_LINE - 1) // RESULTS_PER_LINE
        slot = (line + 1) * RESULTS_PER_LINE
        lines.append(region.base + (line * 64) % region.size)
    return lines


def _staged_key_addrs(isa, table, count: int):
    """Key addresses on each chunk's own result line, bar the first
    key's: the chunk's first write is the line's first touch, and the
    next query's key fetch reads what it wrote."""
    addrs = []
    for line in _result_lines(isa, count):
        addrs.append(table._key_scratch)
        addrs.extend(line + 8 * (offset - 1)
                     for offset in range(1, RESULTS_PER_LINE))
    return addrs[:count]


def run_mix(seed: int):
    """One mix on a fresh system; returns ``(system, record, streams)``.

    ``record`` lists each stream's outcomes and each scoreboard's peak
    occupancy during it; ``streams`` lists ``(kind, lookups, engine
    events)`` per stream.
    """
    rng = random.Random(seed)
    system = HaloSystem()
    isa = system.isa
    # Issues one to a few cycles apart overlap a chunk's queries; issues
    # about a service time apart make an arrival meet a completion.
    nb_issue = rng.choice((1, 2, 7)) if rng.random() < 0.5 \
        else rng.randint(30, 60)
    isa.costs = IssueCosts(lookup_b_issue=rng.randint(1, 3),
                           lookup_nb_issue=nb_issue,
                           snapshot_check=rng.randint(1, 9))
    tables = []
    for index in range(3):
        key_bytes = rng.choice(KEY_BYTES)
        table = system.create_table(256, key_bytes=key_bytes,
                                    name=f"fused{index}")
        keys = make_keys(200, seed=1000 * seed + index, key_bytes=key_bytes)
        present = [key for value, key in enumerate(keys[:150])
                   if table.insert(key, value)]
        if rng.random() < 0.6:
            system.warm_table(table)
        tables.append((table, present, keys[150:]))
    system.hierarchy.flush_private(0)
    engine = system.engine
    region = isa._result_region
    record, streams = [], []
    for _ in range(STREAMS):
        kind = rng.choice(("halo-b", "halo-nb", "halo-nb", "software"))
        table, present, absent = rng.choice(tables)
        count = rng.randint(1, 20) if kind == "halo-nb" else rng.randint(1, 6)
        keys = [rng.choice(absent) if rng.random() < 0.2
                else rng.choice(present) for _ in range(count)]
        roll = rng.random()
        if roll < 0.15:
            system.flush_table(table)
        elif roll < 0.3:
            system.warm_table(table)
        if rng.random() < 0.4:
            system.hierarchy.flush_region(region.base, region.size)
        for accelerator in system.accelerators:
            accelerator.scoreboard.stats.peak_occupancy = 0
        events = engine.events_processed
        if kind == "halo-nb" and rng.random() < 0.3:
            outcomes = engine.run_process(isa.lookup_batch(
                0, table, keys,
                key_addrs=_staged_key_addrs(isa, table, count)))
        else:
            outcomes = engine.run_process(
                system.backend(kind).lookup_stream(table, keys))
        record.append((outcomes, [
            accelerator.scoreboard.stats.peak_occupancy
            for accelerator in system.accelerators]))
        streams.append((kind, count, engine.events_processed - events))
    return system, record, streams


def _view(value, first_id):
    """A comparable copy of an outcome or result; query ids count from
    the run's first (they come from a process-global counter) and spans
    compare as their trees."""
    if dataclasses.is_dataclass(value):
        out = {}
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            if field.name == "query_id":
                item -= first_id
            elif field.name == "span":
                item = _scrub_span(item.to_dict(), first_id)
            out[field.name] = _view(item, first_id)
        return out
    if isinstance(value, (list, tuple)):
        return [_view(item, first_id) for item in value]
    if hasattr(value, "name") and hasattr(value, "layout"):
        return value.name
    return value


def _scrub_span(span: dict, first_id: int) -> dict:
    attrs = span.get("attrs")
    if attrs and "query_id" in attrs:
        attrs["query_id"] -= first_id
    for child in span.get("children", ()):
        _scrub_span(child, first_id)
    return span


def _stats(obj) -> dict:
    return dataclasses.asdict(obj)


def state(system, record) -> dict:
    """Everything the pin compares."""
    hierarchy = system.hierarchy
    first_id = next(result.query.query_id
                    for outcomes, _peaks in record for outcome in outcomes
                    for result in [getattr(outcome, "raw", outcome)]
                    if result is not None)
    export = system.obs.export()
    metrics = {name: value for name, value in export["metrics"].items()
               if not name.startswith(("replay.", "halo.fallback."))}
    caches = {cache.name: {index: list(lines.items())
                           for index, lines in cache._sets.items()}
              for cache in hierarchy.l1 + hierarchy.l2 + hierarchy.llc}
    accelerators = [{
        "stats": _stats(acc.stats),
        "scoreboard": _stats(acc.scoreboard.stats),
        "occupancy": acc.scoreboard.occupancy,
        "metadata": _stats(acc.metadata_cache.stats),
        "metadata_lines": list(acc.metadata_cache._entries),
        "flow_register": _stats(acc.flow_register.stats),
        "flow_bits": acc.flow_register._array,
    } for acc in system.accelerators]
    return {
        "now": system.engine.now,
        "outcomes": _view(record, first_id),
        "metrics": metrics,
        "spans": [_scrub_span(span, first_id) for span in export["spans"]],
        "caches": caches,
        "dram": (_stats(hierarchy.dram.stats), hierarchy.dram._outstanding),
        "accelerators": accelerators,
        "locks": _stats(system.lock_manager.stats),
        "interconnect": _stats(hierarchy.interconnect.stats),
        "isa": _stats(system.isa.stats),
        "distributor": _stats(system.distributor.stats),
    }


def _cap_horizon(monkeypatch):
    next_event_time = Engine.next_event_time

    def capped(engine):
        horizon = next_event_time(engine)
        cap = engine.now + HORIZON_CAP
        return cap if horizon is None or horizon > cap else horizon

    monkeypatch.setattr(Engine, "next_event_time", capped)


@pytest.mark.parametrize("seed", MIX_SEEDS)
def test_fused_queries_match_per_stage(seed, monkeypatch):
    fused_system, fused_record, fused_streams = run_mix(seed)
    fused = state(fused_system, fused_record)
    with monkeypatch.context() as patch:
        _cap_horizon(patch)
        staged_system, staged_record, staged_streams = run_mix(seed)
    staged = state(staged_system, staged_record)

    assert fused.keys() == staged.keys()
    for part in fused:
        assert fused[part] == staged[part], f"mix {seed}: {part} differs"

    # The default run fused every HALO lookup: at most two events each
    # (one timeout and its wake), besides each stream's start.
    halo = [(count, events) for kind, count, events in fused_streams
            if kind != "software"]
    assert sum(events for _count, events in halo) \
        <= sum(2 * count + 1 for count, _events in halo)
    # ... and counted no fallback; the capped run counted every LOOKUP_B
    # and chunk as one.
    fused_metrics = fused_system.obs.metrics.snapshot()
    assert not any(name.startswith("halo.fallback.")
                   for name in fused_metrics)
    per_stage = sum(count if kind == "halo-b"
                    else -(-count // RESULTS_PER_LINE)
                    for kind, count, _events in staged_streams
                    if kind != "software")
    assert staged_system.obs.metrics.snapshot()[METRIC_FALLBACK_BUSY] \
        == per_stage
    assert sum(events for kind, _count, events in staged_streams
               if kind != "software") > 4 * sum(count for count, _ in halo)


def test_mixes_reach_the_cases_they_pin():
    """The mixes hit what makes fusing a batch delicate: completions out
    of port order, a poll on the last completion's cycle and an arrival
    on a completion's cycle."""
    out_of_order = poll_ties = arrival_ties = 0
    for seed in MIX_SEEDS:
        system, record, _streams = run_mix(seed)
        costs = system.isa.costs
        latency = system.hierarchy.latency
        poll = (latency.cha_llc_hit + latency.llc_hit) // 2 \
            + costs.snapshot_check
        for outcomes, _peaks in record:
            results = [getattr(outcome, "raw", outcome) for outcome in outcomes]
            results = [result for result in results if result is not None
                       and result.query.result_addr is not None]
            for start in range(0, len(results), RESULTS_PER_LINE):
                chunk = results[start:start + RESULTS_PER_LINE]
                ends = [result.completed_at for result in chunk]
                out_of_order += ends != sorted(ends)
                # A query reaches its accelerator as its dispatch ends.
                arrivals = {result.query.span.children[0].end
                            for result in chunk}
                arrival_ties += bool(arrivals & set(ends))
                issued = chunk[-1].query.issued_at
                last = max(ends)
                polls = issued + poll
                while polls < last:
                    polls += 4 + poll
                poll_ties += polls == last
    assert out_of_order > 10
    assert poll_ties > 0
    assert arrival_ties > 0
