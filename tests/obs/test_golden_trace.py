"""Golden-trace regression: a fixed workload's full observability export.

The workload is deterministic (seeded keys, fresh engine), so the metrics
snapshot and the per-query span trees must be bit-for-bit reproducible.
The expected export lives in ``tests/data/golden_obs.json``; regenerate it
after an *intentional* model change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden_trace.py

Query ids come from a process-global counter (they depend on what ran
before this test), so the comparison scrubs them from span attributes.
"""

import json
import os
from pathlib import Path

import pytest

from repro.classifier import ExactMatchCache
from repro.classifier.flow import FlowMask, make_flow
from repro.classifier.rules import Action, Rule
from repro.cluster import RssBalancer
from repro.core import HaloSystem
from repro.obs import validate_nesting
from repro.workloads import ChurnEngine, ChurnSpec

from ..conftest import make_keys

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_obs.json"

BLOCKING = 24
NONBLOCKING = 32

#: EMC side-workload sizing: small capacity + a long-enough stream so
#: evictions, admission rejects, and several miss-rate windows all land.
EMC_LOOKUPS = 1024
EMC_MISS_WINDOW = 64
EMC_ENTRIES = 16


def run_workload() -> HaloSystem:
    system = HaloSystem()
    table = system.create_table(1 << 8, name="golden")
    keys = make_keys(96, seed=21)
    for index, key in enumerate(keys):
        table.insert(key, index)
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    system.run_blocking_lookups(table, keys[:BLOCKING])
    system.run_nonblocking_lookups(table, keys[BLOCKING:BLOCKING + NONBLOCKING])
    # A metrics-wired EMC driven directly (no engine, no tracer): adds
    # the emc.* counter and windowed miss-rate families to the export
    # without touching the span trees.
    emc = ExactMatchCache(EMC_ENTRIES, policy="second-chance",
                          metrics=system.obs.metrics,
                          miss_window=EMC_MISS_WINDOW)
    rule = Rule(mask=FlowMask.exact(), match=make_flow(0),
                action=Action.output(0))
    churn = ChurnEngine(ChurnSpec.high_churn(seed=33))
    for flow in churn.packets(EMC_LOOKUPS):
        if emc.lookup(flow) is None:
            emc.install(flow, rule)
    # Failover side-workload, metrics-only (no ``trace=`` — the span
    # assertions below pin every root to a "query" tree): a balancer
    # fail/restore cycle adds the cluster.failover.* counter family to
    # the pinned export.
    balancer = RssBalancer(shards=4, table_size=32, seed=13,
                           metrics=system.obs.metrics)
    balancer.fail_shard(1)
    balancer.fail_shard(3)
    balancer.restore_shard(1)
    return system


def _scrub(span: dict) -> None:
    attrs = span.get("attrs")
    if attrs:
        attrs.pop("query_id", None)
        if not attrs:
            del span["attrs"]
    for child in span.get("children", ()):
        _scrub(child)


def sanitized_export(system: HaloSystem) -> dict:
    export = json.loads(system.obs.to_json())
    for span in export["spans"]:
        _scrub(span)
    return export


@pytest.fixture(scope="module")
def workload():
    return run_workload()


def test_export_matches_golden_snapshot(workload):
    export = sanitized_export(workload)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(export, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert export["metrics"] == golden["metrics"]
    assert export["spans"] == golden["spans"]


def test_metric_counting_invariants(workload):
    snapshot = workload.obs.metrics.snapshot()
    queries = snapshot["halo.accelerator.queries"]
    assert queries == BLOCKING + NONBLOCKING
    assert (snapshot["halo.accelerator.hits"]
            + snapshot["halo.accelerator.misses"]) == queries
    assert snapshot["halo.distributor.dispatched"] == queries
    assert (snapshot["halo.isa.lookup_b"]
            + snapshot["halo.isa.lookup_nb"]) == queries
    assert snapshot["halo.query.latency_cycles"]["count"] == queries
    assert snapshot["halo.locks.held"] == 0
    # every metadata lookup either hit or missed
    assert (snapshot["halo.accelerator.metadata_hits"]
            + snapshot["halo.accelerator.metadata_misses"]) == queries


def test_failover_metrics_exported(workload):
    """The cluster failover counters land in the pinned export, and the
    unhealthy-shards gauge reflects the final (one still dead) state."""
    snapshot = workload.obs.metrics.snapshot()
    assert snapshot["cluster.failover.fail_events"] == 2
    assert snapshot["cluster.failover.restore_events"] == 1
    assert snapshot["cluster.failover.resteered_entries"] > 0
    assert snapshot["cluster.failover.unhealthy_shards"] == 1


def test_emc_policy_metrics_exported(workload):
    """The cache-policy seam publishes its counters into the same
    registry the golden snapshot pins."""
    snapshot = workload.obs.metrics.snapshot()
    assert snapshot["emc.evictions"] > 0
    assert snapshot["emc.admission_rejects"] > 0
    window = snapshot["emc.second-chance.window_miss_rate"]
    assert window["count"] == EMC_LOOKUPS // EMC_MISS_WINDOW


def test_one_span_tree_per_query_and_nesting_holds(workload):
    roots = workload.obs.trace.roots
    assert len(roots) == BLOCKING + NONBLOCKING
    for root in roots:
        assert root.name == "query"
        assert validate_nesting(root) == []


def test_span_stage_structure(workload):
    """Each query tree walks distributor -> accelerator -> memory stages."""
    for root in workload.obs.trace.roots:
        names = [span.name for span in root.walk()]
        assert "distributor.dispatch" in names
        assert "accelerator.queue" in names
        assert "accelerator.serve" in names
        assert "metadata_fetch" in names
        assert "key_fetch" in names
        assert "hash" in names
        assert "bucket_scan" in names
        assert "deliver" in names
        assert "found" in root.attrs


def test_span_durations_cover_children(workload):
    for root in workload.obs.trace.roots:
        for span in root.walk():
            child_span = sum(c.duration for c in span.children)
            assert span.duration >= 0.0
            # children are sequential stages of their parent
            assert child_span <= span.duration + 1e-9
