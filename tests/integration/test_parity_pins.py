"""Parity pins: fast paths can never silently diverge from the model.

Each pin runs a real experiment (quick grid) twice — once in the default
configuration and once with the fast path or the safety net switched —
and requires every number in every payload to match at ``rel=1e-12``:

* **windowed vs serial replay** (``SoftwareBackend(serial_replay=True)``):
  the :class:`repro.sim.replay.TraceReplay` loop captures whole key
  streams and prices them in windows between interaction points (one
  unbounded window on an otherwise idle engine) instead of one event per
  lookup; it must be a pure reordering of work, not a different model.
* **bounded vs whole-stream windows** (every replay horizon capped at
  ``WINDOW_CYCLES`` ahead, as if another process were always about to
  run): where a stream would be one window, it is cut into many; where
  the cuts fall must never show in the numbers.
* **guard on vs off**: :func:`repro.guard.attach_standard_guard` on
  every :class:`~repro.core.HaloSystem` the experiment builds (a
  test-side wrapper of ``HaloSystem.__init__``).  The safety net
  observes every event, checks every standard invariant, and forces
  serial replay; observation must never perturb results, and each
  guard must have seen every event of its engine.
* **the full stack** — serial replay asked for and a guard on every
  system together against the plain defaults.

Covered experiments: fig09, fig11, multicore scaling, and the
degradation sweep — the four the speed campaign leans on hardest — and
the software switch's fused packets (one engine step per packet on an
idle engine, :mod:`repro.vswitch.switch`).  Serial replay and capped
horizons force the switch's per-stage path, so fig03 runs under both,
and fig12, whose collocated switch shares the engine with an NF, under
the cap.  A guarded fig03 quick grid takes about 100 s (the guard
sweeps every invariant at each drain, once per packet), so the guarded
switch is pinned in ``tests/vswitch/test_switch_programs.py``.  HALO
queries fuse the same way (one engine step per ``LOOKUP_B`` or
one-table batch chunk on an idle engine, :mod:`repro.core.isa`), and a
capped horizon or a guard puts them on the per-stage path: fig09's
``halo-b`` and ``halo-nb`` streams and fig11's ``LOOKUP_B`` loop run
under both pins, and fig10 (every query a fused ``LOOKUP_B``) and
keysize (one to eight hash lanes) under the cap.  Each experiment's
plain-defaults run is computed once and shared by its pins.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import pytest

from repro.core import HaloSystem
from repro.exec.backend import SoftwareBackend
from repro.guard import attach_standard_guard
from repro.runner import run_for_bench
from repro.sim.engine import Engine
from repro.sim.stats import Breakdown

EXPERIMENTS = ("fig09", "fig11", "multicore", "degradation")
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
    payloads, text = run_for_bench(name, quick=True)
    numbers = {}
    for label, payload in payloads.items():
        numbers.update(_numeric_view(payload, label))
    assert numbers, f"experiment {name!r} produced no numeric payloads"
    return numbers, text


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


def _assert_parity(name, baseline, candidate, toggle):
    base_numbers, base_text = baseline
    cand_numbers, cand_text = candidate
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


@pytest.mark.parametrize("name", EXPERIMENTS + SWITCH_EXPERIMENTS)
def test_batched_replay_parity(name, monkeypatch):
    """Windowed replay (the default) vs serial replay everywhere."""
    windowed = _defaults(name)
    monkeypatch.setattr(SoftwareBackend, "__init__", functools.partialmethod(
        SoftwareBackend.__init__, serial_replay=True))
    serial = _snapshot(name)
    _assert_parity(name, serial, windowed, "serial_replay=True")


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_guard_parity(name, monkeypatch):
    """No guard vs the standard guard on every system."""
    baseline = _defaults(name)
    guarded = _guard_every_system(monkeypatch)
    candidate = _snapshot(name)
    _assert_guards_ran(name, guarded)
    _assert_parity(name, baseline, candidate, "attach_standard_guard")


@pytest.mark.parametrize(
    "name", EXPERIMENTS + SWITCH_EXPERIMENTS + COLLOCATED_SWITCH_EXPERIMENTS
    + FUSED_QUERY_EXPERIMENTS)
def test_windowed_replay_parity(name, monkeypatch):
    """Whole-stream windows vs windows bounded at ``WINDOW_CYCLES``; the
    cap also puts every HALO query on its per-stage path."""
    whole = _defaults(name)
    next_event_time = Engine.next_event_time

    def capped(engine):
        horizon = next_event_time(engine)
        cap = engine.now + WINDOW_CYCLES
        return cap if horizon is None or horizon > cap else horizon

    monkeypatch.setattr(Engine, "next_event_time", capped)
    bounded = _snapshot(name)
    _assert_parity(name, whole, bounded,
                   f"horizons capped at {WINDOW_CYCLES:g} cycles")


@pytest.mark.parametrize("name", ("multicore", "degradation"))
def test_full_stack_parity(name, monkeypatch):
    """Serial replay and a guard on every system at once vs the plain
    defaults."""
    baseline = _defaults(name)
    monkeypatch.setattr(SoftwareBackend, "__init__", functools.partialmethod(
        SoftwareBackend.__init__, serial_replay=True))
    guarded = _guard_every_system(monkeypatch)
    stacked = _snapshot(name)
    _assert_guards_ran(name, guarded)
    _assert_parity(name, baseline, stacked,
                   "serial_replay=True + attach_standard_guard")
