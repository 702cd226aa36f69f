"""FaultInjector mechanics: hook lifecycle, each fault kind's effect on
the model, and the ``faults.*`` metrics source."""

import pytest

from repro.core import HaloSystem
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultWindow
from repro.faults.injector import ACCEL_SEAM
from repro.sim import SimulationError

from ..conftest import make_keys


def build_system(entries=2048, keys=600, seed=91):
    system = HaloSystem()
    table = system.create_table(entries, name="faults_test")
    inserted = []
    for index, key in enumerate(make_keys(keys, seed=seed)):
        if table.insert(key, index):
            inserted.append((key, index))
    system.warm_table(table)
    system.hierarchy.flush_private(0)
    return system, table, inserted


# -- lifecycle -------------------------------------------------------------
def test_install_attaches_all_hooks_and_uninstall_detaches():
    system, _table, _ = build_system()
    injector = FaultInjector(system, FaultPlan.degradation(0.5))
    injector.install()
    assert system.engine.fault_hook(ACCEL_SEAM) is not None
    assert system.hierarchy.dram.fault_hook is not None
    assert system.hierarchy.interconnect.fault_hook is not None
    injector.uninstall()
    assert system.engine.fault_hook(ACCEL_SEAM) is None
    assert system.hierarchy.dram.fault_hook is None
    assert system.hierarchy.interconnect.fault_hook is None


def test_install_is_idempotent_but_second_injector_rejected():
    system, _table, _ = build_system()
    injector = FaultInjector(system, FaultPlan())
    injector.install()
    injector.install()  # no-op, no error
    other = FaultInjector(system, FaultPlan())
    with pytest.raises(SimulationError):
        other.install()


def test_engine_hook_bus_one_hook_per_site(engine):
    engine.add_fault_hook("site", lambda: None)
    with pytest.raises(SimulationError):
        engine.add_fault_hook("site", lambda: None)
    engine.remove_fault_hook("site")
    engine.remove_fault_hook("site")  # removing absent hook is fine
    assert engine.fault_hook("site") is None


def test_metrics_source_silent_until_first_injection():
    system, table, inserted = build_system()
    injector = FaultInjector(system, FaultPlan())
    injector.install()
    keys = [key for key, _ in inserted[:20]]
    backend = system.backend("halo-nb")
    system.engine.run_process(backend.lookup_stream(table, keys))
    snapshot = system.obs.metrics.snapshot()
    assert not any(name.startswith("faults.") for name in snapshot), \
        "an idle injector must not clutter the report"


# -- per-kind effects ------------------------------------------------------
def test_accel_stall_slows_lookups_and_counts():
    baseline_system, baseline_table, inserted = build_system()
    keys = [key for key, _ in inserted[:30]]
    baseline = baseline_system.engine.run_process(
        baseline_system.backend("halo-b").lookup_stream(baseline_table, keys))

    system, table, _ = build_system()
    plan = FaultPlan(windows=(FaultWindow(
        kind=FaultKind.ACCEL_STALL, start=0, end=1e9, magnitude=200.0), ))
    injector = FaultInjector(system, plan).install()
    faulted = system.engine.run_process(
        system.backend("halo-b").lookup_stream(table, keys))

    assert injector.stats.accel_stalls == len(keys)
    assert injector.stats.accel_stall_cycles == 200.0 * len(keys)
    assert sum(o.cycles for o in faulted) \
        >= sum(o.cycles for o in baseline) + 200.0 * len(keys)
    assert [o.value for o in faulted] == [o.value for o in baseline]


def test_accel_outage_defers_queries_to_window_end():
    system, table, inserted = build_system()
    slice_id = system.hierarchy.interconnect.slice_of_table(table.table_addr)
    plan = FaultPlan.slice_outage(slice_id, start=0, end=5_000)
    injector = FaultInjector(system, plan).install()
    key, value = inserted[0]
    outcome = system.engine.run_process(
        system.backend("halo-b").lookup(table, key))
    assert outcome.value == value
    assert system.engine.now >= 5_000, \
        "the query must not complete while its slice is dark"
    assert injector.stats.outage_delays == 1
    assert injector.stats.outage_cycles > 0


def test_dram_spike_inflates_access_latency():
    system, _table, _ = build_system()
    dram = system.hierarchy.dram
    base = dram.access_latency(write=False)
    plan = FaultPlan(windows=(FaultWindow(
        kind=FaultKind.DRAM_SPIKE, start=0, end=1e9, magnitude=123.0), ))
    injector = FaultInjector(system, plan).install()
    assert dram.access_latency(write=False) == pytest.approx(base + 123.0)
    assert injector.stats.dram_spikes == 1
    assert injector.stats.dram_extra_cycles == pytest.approx(123.0)
    injector.uninstall()
    assert dram.access_latency(write=False) == pytest.approx(base)


def test_noc_drop_pays_retransmit():
    system, _table, _ = build_system()
    interconnect = system.hierarchy.interconnect
    base = interconnect.transfer_latency(0, 3)
    plan = FaultPlan(windows=(
        FaultWindow(kind=FaultKind.NOC_DROP, start=0, end=1e9,
                    probability=1.0), ))
    injector = FaultInjector(system, plan).install()
    messages_before = interconnect.stats.messages
    faulted = interconnect.transfer_latency(0, 3)
    assert faulted > base  # the retransmit pays the path again
    assert injector.stats.noc_drops == 1
    # The lost message and its retransmit count as one message.
    assert interconnect.stats.messages == messages_before + 1


# -- install-time validation -------------------------------------------------
@pytest.mark.parametrize("slice_id", [-1, 16, 99])
def test_install_rejects_a_slice_the_machine_lacks(slice_id):
    system, _table, _ = build_system()
    assert len(system.accelerators) == 16
    plan = FaultPlan.slice_outage(slice_id, start=0, end=100)
    with pytest.raises(ValueError,
                       match=rf"FaultWindow\.slice_id {slice_id} outside "
                             rf"the machine's slices 0\.\.15"):
        FaultInjector(system, plan).install()
    assert system.engine.fault_hook(ACCEL_SEAM) is None


@pytest.mark.parametrize("slice_id", [0, 15])
def test_install_accepts_the_machine_s_first_and_last_slice(slice_id):
    system = HaloSystem()
    FaultInjector(system,
                  FaultPlan.slice_outage(slice_id, start=0, end=100)).install()
    assert system.engine.fault_hook(ACCEL_SEAM) is not None
