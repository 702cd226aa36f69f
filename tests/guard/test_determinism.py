"""The guard's zero-perturbation guarantee.

An attached guard *observes* the simulation; it must never steer it.
The acceptance bar from the safety-net design: with the watchdog and
every standard invariant attached, cycle counts match the unguarded run
to 1e-12, and the event timeline is bit-identical.
"""

import pytest

from repro.core import HaloSystem
from repro.guard import attach_standard_guard
from repro.sim.engine import Engine

from ..conftest import make_keys

N_KEYS = 48


def run_workload(guarded, backend_kind="halo-b", seed=29):
    """One full episode; returns (system, guard or None, outcomes)."""
    system = HaloSystem()
    guard = attach_standard_guard(system) if guarded else None
    table = system.create_table(2048, name="parity")
    inserted = []
    for index, key in enumerate(make_keys(400, seed=seed)):
        if table.insert(key, index):
            inserted.append(key)
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    backend = system.backend(backend_kind)
    outcomes = system.engine.run_process(
        backend.lookup_stream(table, inserted[:N_KEYS]))
    return system, guard, outcomes


def run_per_step(backend_kind, monkeypatch):
    """The bare episode with every horizon capped at the present, as a
    guard makes it: each software lookup and each HALO query stage is one
    engine step."""
    with monkeypatch.context() as patch:
        patch.setattr(Engine, "next_event_time", lambda engine: engine.now)
        return run_workload(False, backend_kind)


@pytest.mark.parametrize("backend_kind", ["halo-b", "halo-nb", "software"])
def test_guard_is_cycle_invisible(backend_kind, monkeypatch):
    # A guard runs nothing ahead of the engine; the capped bare run does
    # not either, so the two event timelines are comparable.
    bare_system, _, bare = run_per_step(backend_kind, monkeypatch)
    # The default bare run replays the stream whole or fuses its
    # queries: same end and outcomes in fewer engine events.
    fast_system, _, fast = run_workload(False, backend_kind)
    assert fast_system.engine.now == bare_system.engine.now
    assert [(o.value, o.found, o.cycles) for o in fast] \
        == [(o.value, o.found, o.cycles) for o in bare]
    assert fast_system.engine.events_processed \
        < bare_system.engine.events_processed
    guarded_system, _, guarded = run_workload(True, backend_kind)
    assert guarded_system.engine.now \
        == pytest.approx(bare_system.engine.now, rel=1e-12)
    assert guarded_system.engine.events_processed \
        == bare_system.engine.events_processed
    for bare_outcome, guarded_outcome in zip(bare, guarded):
        assert guarded_outcome.cycles \
            == pytest.approx(bare_outcome.cycles, rel=1e-12)
        assert guarded_outcome.value == bare_outcome.value
        assert guarded_outcome.found == bare_outcome.found


def test_guarded_run_is_itself_deterministic():
    first_system, first_guard, first = run_workload(True)
    second_system, second_guard, second = run_workload(True)
    assert first_system.engine.now == second_system.engine.now
    assert [o.cycles for o in first] == [o.cycles for o in second]
    assert first_guard.as_dict() == second_guard.as_dict()


def test_guard_actually_ran_during_parity_check():
    """Guard-vs-bare parity proves nothing if the guard never checked
    anything — pin down that the sampled checks really happened."""
    system, guard, _ = run_workload(True)
    stats = guard.as_dict()
    assert stats["invariant_checks"] > 0
    assert stats["events_observed"] == system.engine.events_processed
