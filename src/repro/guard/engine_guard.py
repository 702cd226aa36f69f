"""The guard object the engine holds: a watchdog plus invariant checks.

:class:`EngineGuard` is the single attachment point
(``engine.attach_guard(guard)``): it serves the engine's two hook sites
— ``before_event`` on every dispatched event, ``on_drain`` when the
calendar empties.  Every guard runs a
:class:`~repro.guard.watchdog.Watchdog`; it evaluates its invariants
every :data:`CHECK_EVERY` events and once more at each drain, and raises
:class:`~repro.guard.errors.InvariantViolation` at the first broken one.
:meth:`EngineGuard.as_dict` is the ``guard.*`` metrics pull source
:func:`repro.guard.presets.attach_standard_guard` registers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from .errors import InvariantViolation
from .invariants import Invariant
from .watchdog import Watchdog

#: Events between two invariant sweeps.
CHECK_EVERY = 256


class EngineGuard:
    """Watchdog + invariant checking bound to one engine."""

    def __init__(self, invariants: Iterable[Invariant] = ()) -> None:
        self.watchdog = Watchdog()
        self.invariants = list(invariants)
        self.events_observed = 0
        self.invariant_checks = 0
        self._since_check = 0

    # -- engine hook protocol ------------------------------------------------
    def on_attach(self, engine: Any) -> None:
        self.watchdog.start(engine)

    def before_event(self, engine: Any) -> None:
        self.events_observed += 1
        self.watchdog.check(engine)
        self._since_check += 1
        if self._since_check == CHECK_EVERY:
            self._since_check = 0
            self.check_now(engine)

    def on_drain(self, engine: Any) -> None:
        # Final sweep so violations between the last sample and the
        # drain still surface.
        self.check_now(engine)
        self.watchdog.on_drain(engine)

    def check_now(self, engine: Any) -> None:
        """Evaluate every invariant; raise at the first violation."""
        for invariant in self.invariants:
            self.invariant_checks += 1
            detail = invariant.predicate()
            if detail is not None:
                raise InvariantViolation(invariant.name, detail, engine.now,
                                         engine.events_processed)

    # -- metrics pull source -------------------------------------------------
    def as_dict(self) -> Dict[str, float]:
        """Flat scalar view for the metrics registry (``guard.*``)."""
        return {"events_observed": self.events_observed,
                "invariants": len(self.invariants),
                "invariant_checks": self.invariant_checks}
