"""Parity pins: fast paths can never silently diverge from the model.

Each pin runs a real experiment (quick grid) twice — once in the default
configuration and once with the fast path or the safety net switched —
and requires every number in every payload to match at ``rel=1e-12``:

* **every horizon is now** (``Engine.next_event_time`` returns
  ``engine.now``, as if another process were always about to run): no
  program runs ahead of the engine.  Every
  :class:`repro.sim.replay.TraceReplay` window has a zero budget and
  prices one trace, every software switch packet and every HALO query
  yields per stage.  The defaults' whole-stream windows, one-step
  packets and fused queries must be a pure reordering of that work, not
  a different model.  Each such run must ask the capped horizon and
  take more engine events than the defaults: a pin over a run where
  nothing was forced would compare nothing.
* **bounded vs whole-stream windows** (every replay horizon capped at
  ``WINDOW_CYCLES`` ahead): where a stream would be one window, it is
  cut into many; where the cuts fall must never show in the numbers.
  Each such run must ask the capped horizon.
* **guard on vs off**: :func:`repro.guard.attach_standard_guard` on
  every :class:`~repro.core.HaloSystem` the experiment builds (a
  test-side wrapper of ``HaloSystem.__init__``).  The safety net
  observes every event, checks every standard invariant, and runs
  nothing ahead of the engine (:func:`repro.sim.replay.observer`);
  observation must never perturb results, and each guard must have
  seen every event of its engine.
* **bulk vs one-at-a-time table builds**
  (``CuckooHashTable.insert_many`` replaced by a loop of ``insert``):
  hashing a batch in one numpy pass must build the same tables.  Each
  such run must have called ``insert_many``.

Covered experiments: fig09, fig11, multicore scaling, and the
degradation sweep — the four the speed campaign leans on hardest — and
the software switch's fused packets (one engine step per packet on an
idle engine, :mod:`repro.vswitch.switch`).  Multicore and degradation
never ask the horizon (per-key software lookups, ``lookup_nb``
fan-outs, fault hooks on every stream), so neither horizon pin runs
them: a cap there would compare the defaults with themselves.  Guarded
with every horizon capped, a run is the guarded run, because the
guard's observer answers before any program asks the horizon.  Both
caps force the switch's per-stage path, so fig03 runs under both, and
fig12, whose collocated switch shares the engine with an NF, under the
bounded cap.  A guarded fig03 quick grid takes about 100 s (the guard
sweeps every invariant at each drain, once per packet), so the guarded
switch is pinned in ``tests/vswitch/test_switch_programs.py``.  HALO queries fuse the same
way (one engine step per ``LOOKUP_B`` or one-table batch chunk on an
idle engine, :mod:`repro.core.isa`), and a capped horizon or a guard
puts them on the per-stage path: fig09's ``halo-b`` and ``halo-nb``
streams and fig11's ``LOOKUP_B`` loop run under every pin, and fig10
(every query a fused ``LOOKUP_B``) and keysize (one to eight hash
lanes) under the bounded cap.  Each experiment's plain-defaults run is
computed once and shared by its pins.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import pytest

from repro.core import HaloSystem
from repro.guard import attach_standard_guard
from repro.hashtable import CuckooHashTable
from repro.runner import run_for_bench
from repro.sim.engine import Engine
from repro.sim.stats import Breakdown

EXPERIMENTS = ("fig09", "fig11", "multicore", "degradation")
#: Experiments with programs that ask the engine's horizon.
RUN_AHEAD_EXPERIMENTS = ("fig09", "fig11")
#: Experiments whose software switch packets are fused on an idle engine.
SWITCH_EXPERIMENTS = ("fig03",)
#: fig12 also collocates its switch with an NF process on one engine.
COLLOCATED_SWITCH_EXPERIMENTS = ("fig12",)
#: Experiments whose HALO queries are fused on an idle engine.
FUSED_QUERY_EXPERIMENTS = ("fig10", "keysize")

REL_TOL = 1e-12

#: Cap on every replay horizon in the bounded-window pin (cycles): a few
#: lookups' worth, so windows end mid-stream on the budget.
WINDOW_CYCLES = 400.0


def _numeric_view(payload, prefix=""):
    """Flatten a payload into {path: number} for exact-ish comparison."""
    out = {}
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        for field in dataclasses.fields(payload):
            out.update(_numeric_view(getattr(payload, field.name),
                                     f"{prefix}.{field.name}"))
    elif isinstance(payload, Breakdown):
        # Figure 3's per-stage cycles, not only the report's rounding.
        out.update(_numeric_view(payload.parts, prefix))
    elif isinstance(payload, dict):
        for key, value in payload.items():
            out.update(_numeric_view(value, f"{prefix}[{key!r}]"))
    elif isinstance(payload, (list, tuple)):
        for index, value in enumerate(payload):
            out.update(_numeric_view(value, f"{prefix}[{index}]"))
    elif isinstance(payload, bool) or payload is None:
        pass
    elif isinstance(payload, (int, float)):
        out[prefix] = float(payload)
    return out


def _snapshot(name):
    """``name``'s quick grid as ``(numbers, report text, engine events)``,
    the events summed over every engine the run built."""
    engines = []
    init = Engine.__init__

    def counted_init(engine):
        init(engine)
        engines.append(engine)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "__init__", counted_init)
        payloads, text = run_for_bench(name, quick=True)
    numbers = {}
    for label, payload in payloads.items():
        numbers.update(_numeric_view(payload, label))
    assert numbers, f"experiment {name!r} produced no numeric payloads"
    return numbers, text, sum(engine.events_processed for engine in engines)


@functools.lru_cache(maxsize=None)
def _defaults(name):
    """``name`` under the plain defaults (no guard), run once per pytest
    process and shared by every pin."""
    return _snapshot(name)


def _guard_every_system(monkeypatch):
    """Attach the standard guard to every ``HaloSystem`` built from here
    on; returns the live list of ``(guard, engine)`` pairs."""
    guarded = []
    init = HaloSystem.__init__

    def guarded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        guarded.append((attach_standard_guard(self), self.engine))

    monkeypatch.setattr(HaloSystem, "__init__", guarded_init)
    return guarded


def _assert_guards_ran(name, guarded):
    """Each guard observed every event of its engine and checked
    invariants: a pin over an unguarded run would compare nothing."""
    assert guarded, f"{name}: no HaloSystem was guarded"
    for guard, engine in guarded:
        assert guard.events_observed == engine.events_processed, (
            f"{name}: guard missed events of its engine")
        assert guard.invariant_checks > 0, (
            f"{name}: guard never checked an invariant")


def _cap_horizons_at_now(monkeypatch):
    """Make every horizon the present; returns the live count of horizon
    reads."""
    reads = [0]

    def now(engine):
        reads[0] += 1
        return engine.now

    monkeypatch.setattr(Engine, "next_event_time", now)
    return reads


def _assert_capped(name, reads, baseline, candidate):
    """Programs asked the capped horizon, and the run took more engine
    events than the defaults: a pin over a run where nothing was forced
    would compare nothing."""
    assert reads[0] > 0, f"{name}: no program asked the engine's horizon"
    assert candidate[2] > baseline[2], (
        f"{name}: capping every horizon at now added no engine events "
        f"({candidate[2]} vs {baseline[2]})")


def _assert_parity(name, baseline, candidate, toggle):
    base_numbers, base_text, _base_events = baseline
    cand_numbers, cand_text, _cand_events = candidate
    assert base_numbers.keys() == cand_numbers.keys(), (
        f"{name}: payload shape changed under {toggle}")
    for path, base_value in base_numbers.items():
        cand_value = cand_numbers[path]
        assert math.isclose(base_value, cand_value, rel_tol=REL_TOL,
                            abs_tol=0.0), (
            f"{name}: {path} diverged under {toggle}: "
            f"{base_value!r} vs {cand_value!r}")
    assert base_text == cand_text, (
        f"{name}: rendered report drifted under {toggle}")


@pytest.mark.parametrize("name", RUN_AHEAD_EXPERIMENTS + SWITCH_EXPERIMENTS)
def test_batched_replay_parity(name, monkeypatch):
    """The defaults vs every horizon capped at now: one engine step per
    replayed trace, switch stage and HALO query stage."""
    windowed = _defaults(name)
    reads = _cap_horizons_at_now(monkeypatch)
    serial = _snapshot(name)
    _assert_capped(name, reads, windowed, serial)
    _assert_parity(name, serial, windowed, "every horizon capped at now")


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_guard_parity(name, monkeypatch):
    """No guard vs the standard guard on every system."""
    baseline = _defaults(name)
    guarded = _guard_every_system(monkeypatch)
    candidate = _snapshot(name)
    _assert_guards_ran(name, guarded)
    _assert_parity(name, baseline, candidate, "attach_standard_guard")


@pytest.mark.parametrize(
    "name", RUN_AHEAD_EXPERIMENTS + SWITCH_EXPERIMENTS
    + COLLOCATED_SWITCH_EXPERIMENTS + FUSED_QUERY_EXPERIMENTS)
def test_windowed_replay_parity(name, monkeypatch):
    """Whole-stream windows vs windows bounded at ``WINDOW_CYCLES``; the
    cap also puts every HALO query on its per-stage path."""
    whole = _defaults(name)
    next_event_time = Engine.next_event_time
    reads = [0]

    def capped(engine):
        reads[0] += 1
        horizon = next_event_time(engine)
        cap = engine.now + WINDOW_CYCLES
        return cap if horizon is None or horizon > cap else horizon

    monkeypatch.setattr(Engine, "next_event_time", capped)
    bounded = _snapshot(name)
    assert reads[0] > 0, f"{name}: no program asked the engine's horizon"
    _assert_parity(name, whole, bounded,
                   f"horizons capped at {WINDOW_CYCLES:g} cycles")


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_bulk_build_parity(name, monkeypatch):
    """Tables built by ``insert_many`` vs by a loop of ``insert``."""
    bulk = _defaults(name)
    batches = [0]

    def one_at_a_time(table, items):
        batches[0] += 1
        return [table.insert(key, value) for key, value in items]

    monkeypatch.setattr(CuckooHashTable, "insert_many", one_at_a_time)
    looped = _snapshot(name)
    assert batches[0] > 0, f"{name}: no table was built by insert_many"
    _assert_parity(name, bulk, looped, "insert_many as a loop of insert")
