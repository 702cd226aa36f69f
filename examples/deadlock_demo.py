#!/usr/bin/env python3
"""Deadlock demo: the watchdog catches a classic lock-order inversion.

Two processes each hold one of two single-slot
:class:`~repro.sim.engine.Resource` units and then request the other —
the textbook ABBA deadlock.  Without a guard the simulation would simply
*end*: the event calendar drains (nothing is scheduled, everyone is
waiting) and ``engine.run()`` returns as if the run completed.  With the
:mod:`repro.guard` watchdog attached, the drain is recognised for what
it is and a :class:`~repro.guard.DeadlockError` fires, naming every
blocked process and the exact waitable it is stuck on — the dump below
is what CI greps for.

Run:  python examples/deadlock_demo.py
Exits zero *iff* the watchdog caught the deadlock.
"""

import sys

from repro.guard import DeadlockError, EngineGuard
from repro.sim.engine import Engine, Resource


def worker(engine: Engine, first: Resource, second: Resource):
    """Grab ``first``, dally one cycle, then request ``second``."""
    yield first.acquire()
    yield engine.timeout(1)
    yield second.acquire()  # never granted: the peer holds it
    second.release()
    first.release()


def main() -> int:
    engine = Engine()
    lock_a = Resource(engine, capacity=1)
    lock_b = Resource(engine, capacity=1)

    # Opposite acquisition orders — the inversion CI wants diagnosed.
    engine.process(worker(engine, lock_a, lock_b), name="forward-worker")
    engine.process(worker(engine, lock_b, lock_a), name="reverse-worker")
    engine.attach_guard(EngineGuard())

    try:
        engine.run()
    except DeadlockError as exc:
        print("watchdog caught the deadlock:")
        print()
        print(exc)
        blocked = {entry.name for entry in exc.blocked}
        assert blocked == {"forward-worker", "reverse-worker"}, blocked
        return 0

    print("ERROR: simulation drained without the watchdog firing",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
