"""Resilience policies under injected faults: bounded waits, software
fallback, hysteresis recovery, and the zero-lost-lookups guarantee."""

import pytest

from repro.core import HaloSystem
from repro.exec import CoreWorkload, ResiliencePolicy
from repro.faults import FaultInjector, FaultPlan

from ..conftest import make_keys

TIGHT = ResiliencePolicy(poll_budget=8, max_retries=1, backoff_base=16.0,
                         probe_interval=8, recovery_successes=2)


def build_system(entries=2048, keys=600, seed=91):
    system = HaloSystem()
    table = system.create_table(entries, name="resilience_test")
    inserted = []
    for index, key in enumerate(make_keys(keys, seed=seed)):
        if table.insert(key, index):
            inserted.append((key, index))
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    return system, table, inserted


def outage_plan(system, table, start, end):
    slice_id = system.hierarchy.interconnect.slice_of_table(table.table_addr)
    return FaultPlan.slice_outage(slice_id, start=start, end=end)


# -- policy plumbing -------------------------------------------------------
def test_policy_validation():
    with pytest.raises(ValueError):
        ResiliencePolicy(poll_budget=0)
    with pytest.raises(ValueError):
        ResiliencePolicy(max_retries=-1)
    with pytest.raises(ValueError):
        ResiliencePolicy(probe_interval=0)
    with pytest.raises(ValueError):
        ResiliencePolicy(recovery_successes=0)


@pytest.mark.parametrize("backoff_base",
                         [-16.0, -1e-9, float("nan"), float("inf"),
                          float("-inf")])
def test_policy_rejects_bad_backoff_base(backoff_base):
    # A negative base used to construct and then die mid-run in the
    # engine ("negative timeout") on the first timed-out poll.
    with pytest.raises(ValueError,
                       match=r"ResiliencePolicy\.backoff_base must be a "
                             r"finite number >= 0"):
        ResiliencePolicy(poll_budget=8, max_retries=1,
                         backoff_base=backoff_base)


def test_policy_accepts_zero_backoff_base():
    assert ResiliencePolicy(backoff_base=0.0).backoff(3) == 0.0


def test_backoff_is_exponential():
    policy = ResiliencePolicy(backoff_base=10.0)
    assert policy.backoff(0) == 10.0
    assert policy.backoff(1) == 20.0
    assert policy.backoff(2) == 40.0


def test_policy_on_healthy_machine_matches_legacy_cycles():
    """With no faults, a policy'd backend must replay the unbounded
    idiom's per-key cycles exactly — the budget is never spent."""
    bare_system, bare_table, inserted = build_system()
    keys = [key for key, _ in inserted[:30]]
    bare = bare_system.engine.run_process(
        bare_system.backend("halo-nb").lookup(bare_table, keys[0]))

    system, table, _ = build_system()
    guarded = system.engine.run_process(
        system.backend("halo-nb", policy=ResiliencePolicy())
        .lookup(table, keys[0]))
    assert guarded.cycles == pytest.approx(bare.cycles, rel=1e-12)
    assert guarded.value == bare.value
    assert not guarded.degraded


# -- fallback + recovery ---------------------------------------------------
def test_outage_triggers_fallback_then_recovery():
    system, table, inserted = build_system()
    injector = FaultInjector(
        system, outage_plan(system, table, start=500, end=6_000)).install()
    backend = system.backend("halo-nb", policy=TIGHT)
    keys = [key for key, _ in inserted[:300]]
    outcomes = system.engine.run_process(backend.lookup_stream(table, keys))

    expected = [value for _, value in inserted[:300]]
    assert [o.value for o in outcomes] == expected, "zero lost lookups"
    degraded = [o for o in outcomes if o.degraded]
    assert degraded, "the outage must force software fallbacks"
    assert backend.degraded_lookups == len(degraded)

    kinds = [what for _when, what, _slice in backend.resilience_events]
    assert kinds == ["degraded", "recovered"], \
        f"expected one clean degrade/recover cycle, got {kinds}"
    (degraded_at, _, _), (recovered_at, _, _) = backend.resilience_events
    assert 500 <= degraded_at < 6_000
    assert recovered_at > 6_000, "recovery only after the outage lifts"
    assert injector.stats.outage_delays > 0

    snapshot = system.obs.metrics.snapshot()
    assert snapshot["exec.resilience.fallbacks"] >= 1
    assert snapshot["exec.resilience.recoveries"] == 1
    assert snapshot["exec.resilience.degraded_lookups"] == len(degraded)
    assert snapshot["exec.resilience.timeouts"] >= 1

    spans = [span.name for span in system.obs.trace.roots]
    assert "resilience.degraded" in spans
    assert "resilience.recovered" in spans


def test_permanent_outage_serves_everything_from_software():
    system, table, inserted = build_system()
    FaultInjector(system,
                  outage_plan(system, table, start=0, end=1e9)).install()
    backend = system.backend("halo-nb", policy=TIGHT)
    keys = [key for key, _ in inserted[:60]]
    outcomes = system.engine.run_process(backend.lookup_stream(table, keys))
    assert [o.value for o in outcomes] == [v for _, v in inserted[:60]]
    # First lookup times out and falls back; everything after is degraded
    # (modulo periodic probes, which also fail and fall back).
    assert sum(o.degraded for o in outcomes) == len(outcomes)
    kinds = [what for _w, what, _s in backend.resilience_events]
    assert kinds == ["degraded"], "no recovery while the slice stays dark"


def test_adaptive_four_cores_zero_lost_lookups_under_outage():
    """The acceptance scenario: a slice-outage plan, adaptive backends on
    four cores, full workload completes with every result correct."""
    system, table, inserted = build_system(entries=4096, keys=900)
    FaultInjector(system,
                  outage_plan(system, table, start=2_000, end=9_000)).install()
    per_core = 80
    keys = [key for key, _ in inserted]
    workloads = [
        CoreWorkload(backend=system.backend("adaptive", core_id=core,
                                            policy=TIGHT),
                     core_id=core, table=table,
                     keys=keys[core * per_core:(core + 1) * per_core],
                     name=f"pmd{core}")
        for core in range(4)
    ]
    run = system.run_cores(workloads)
    expected = [value for _, value in inserted]
    lost = 0
    degraded = 0
    for result in run.results:
        base = result.core_id * per_core
        for offset, outcome in enumerate(result.result):
            lost += outcome.value != expected[base + offset]
            degraded += outcome.degraded
    assert lost == 0
    assert degraded > 0, "the outage must actually bite"
    snapshot = system.obs.metrics.snapshot()
    assert snapshot["exec.resilience.fallbacks"] >= 1
