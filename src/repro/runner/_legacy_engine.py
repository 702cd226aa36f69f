"""Frozen pre-campaign DES engine — the ordering reference of record.

This is a verbatim snapshot of ``repro.sim.engine`` as it stood before the
hot-loop speed campaign (binary-heap calendar, per-hop tuple re-pack, no
slots).  ``tests/sim/test_calendar_equivalence.py`` runs randomized
programs on this engine and on the live one and requires identical event
order, clocks and event counts, so the bucketed calendar and the timeout
free-list are held to a plain heap engine.

Do not modernise this module; its whole value is that it does not change.
The original module docstring follows.

Discrete-event simulation engine.

A deliberately small, deterministic event-driven kernel in the spirit of
SimPy, tuned for cycle-level architecture modelling.  Time is measured in
integer (or float) *cycles*.  The engine provides:

* :class:`Engine` — the event loop with a binary-heap calendar.
* :class:`Process` — a coroutine (generator) driven by the engine.  A process
  ``yield``\\ s *waitables*: a cycle delay (``yield engine.timeout(n)``), an
  :class:`Event`, or a resource request.
* :class:`Event` — a one-shot completion signal carrying an optional value.
* :class:`Resource` — a counting resource with a FIFO wait queue (used to
  model scoreboard slots, queue ports, MSHRs, ...).
* :class:`Store` — an unbounded FIFO message channel (command/result queues).

The kernel is single-threaded and fully deterministic: events scheduled for
the same cycle fire in insertion order.

The engine also carries the harness safety net's attachment point: an
optional *guard* (see :mod:`repro.guard`) observes every event, enforces
cycle/event/wall-clock budgets, and detects deadlock when the calendar
drains with processes still blocked.  With no guard attached the event
loop is byte-for-byte the unguarded fast path.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Generator, List, Optional


class SimulationError(RuntimeError):
    """Raised for illegal engine usage (e.g. waiting on a triggered event)."""


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` triggers it, wakes all
    waiting processes, and records ``value``.  Triggering twice is an error.

    ``source`` back-references the object that minted the event (a
    :class:`Resource` for acquire events, a :class:`Store` for get events)
    so guard dumps can say *what* a blocked process is queued on.
    ``abandoned`` marks an event whose only waiter was killed while queued
    in a FIFO — :meth:`Resource.release` and :meth:`Store.put` skip such
    events instead of handing a slot or item to a dead process.
    """

    __slots__ = ("engine", "triggered", "value", "_waiters", "callbacks",
                 "source", "abandoned")

    def __init__(self, engine: "Engine", source: Any = None) -> None:
        self.engine = engine
        self.triggered = False
        self.value: Any = None
        self._waiters: List["Process"] = []
        self.callbacks: List[Callable[["Event"], None]] = []
        self.source = source
        self.abandoned = False

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, delivering ``value`` to every waiter."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        for callback in self.callbacks:
            callback(self)
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.engine._schedule(self.engine.now, process, value)
        return self

    def _add_waiter(self, process: "Process") -> None:
        if self.triggered:
            # Already done: resume the process immediately (same cycle).
            self.engine._schedule(self.engine.now, process, self.value)
        else:
            self._waiters.append(process)


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("at",)

    def __init__(self, engine: "Engine", delay: float) -> None:
        super().__init__(engine)
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.at = engine.now + delay
        engine._schedule_event(self.at, self)


class Process:
    """A generator-based simulated process.

    The generator may ``yield``:

    * an :class:`Event` (including :class:`Timeout`) — resumes when it fires,
      receiving the event's value;
    * ``None`` — resumes on the same cycle (a cooperative yield point).

    The process itself is an :class:`Event` — it triggers with the
    generator's return value when the generator finishes, so processes can
    wait on each other (fork/join).
    """

    __slots__ = ("engine", "generator", "done", "result", "_waiters", "name",
                 "waiting_on", "killed")

    def __init__(self, engine: "Engine", generator: Generator, name: str = "") -> None:
        self.engine = engine
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = False
        self.result: Any = None
        self._waiters: List["Process"] = []
        #: The waitable this process is currently blocked on (None while
        #: runnable/scheduled) — what a guard's deadlock dump reports.
        self.waiting_on: Optional[Any] = None
        self.killed = False
        engine._live[self] = None
        engine._schedule(engine.now, self, None)

    # Event-like interface so processes can be awaited with `yield proc`.
    @property
    def triggered(self) -> bool:
        return self.done

    @property
    def value(self) -> Any:
        return self.result

    def _add_waiter(self, process: "Process") -> None:
        if self.done:
            self.engine._schedule(self.engine.now, process, self.result)
        else:
            self._waiters.append(process)

    def _step(self, send_value: Any) -> None:
        self.waiting_on = None
        try:
            target = self.generator.send(send_value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.engine._live.pop(self, None)
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                self.engine._schedule(self.engine.now, waiter, self.result)
            return
        if target is None:
            self.engine._schedule(self.engine.now, self, None)
        elif isinstance(target, (Event, Process)):
            self.waiting_on = target
            target._add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {target!r}"
            )

    def kill(self) -> None:
        """Terminate the process immediately (watchdog/harness cleanup).

        The generator is closed (running its ``finally`` blocks), the
        process is marked done with a ``None`` result, and any processes
        joined on it are woken.  If it was blocked, it is detached from
        the waitable; an acquire/get event left with no live waiter is
        marked *abandoned* so :class:`Resource`/:class:`Store` FIFOs skip
        it instead of stranding capacity on a dead process.
        """
        if self.done:
            return
        self.generator.close()
        self.done = True
        self.killed = True
        self.result = None
        target, self.waiting_on = self.waiting_on, None
        if target is not None and not target.triggered:
            try:
                target._waiters.remove(self)
            except ValueError:
                pass
            if (isinstance(target, Event) and not target._waiters
                    and not target.callbacks):
                target.abandoned = True
        self.engine._live.pop(self, None)
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.engine._schedule(self.engine.now, waiter, None)


class Resource:
    """A counting resource with ``capacity`` slots and a FIFO wait queue."""

    __slots__ = ("engine", "capacity", "in_use", "_queue", "peak_queue",
                 "total_waits", "dead_skips")

    def __init__(self, engine: "Engine", capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._queue: List[Event] = []
        self.peak_queue = 0
        self.total_waits = 0
        self.dead_skips = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self) -> Event:
        """Return an event that fires once a slot is granted."""
        event = Event(self.engine, source=self)
        if self.in_use < self.capacity and not self._queue:
            self.in_use += 1
            event.succeed(self)
        else:
            self.total_waits += 1
            self._queue.append(event)
            self.peak_queue = max(self.peak_queue, len(self._queue))
        return event

    def release(self) -> None:
        """Free one slot, waking the oldest *live* waiter if any.

        A waiter whose process was killed while queued leaves an
        abandoned event behind; handing it the slot would strand capacity
        on a dead process forever, so such entries are skipped (counted
        in ``dead_skips``) until a live waiter — or the free pool — takes
        the slot.
        """
        if self.in_use <= 0:
            raise SimulationError("release without matching acquire")
        while self._queue:
            event = self._queue.pop(0)
            if event.abandoned:
                self.dead_skips += 1
                continue
            # Hand the slot directly to the next waiter.
            event.succeed(self)
            return
        self.in_use -= 1


class Store:
    """An unbounded FIFO channel between processes."""

    __slots__ = ("engine", "_items", "_getters")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._items: List[Any] = []
        self._getters: List[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        while self._getters:
            event = self._getters.pop(0)
            if event.abandoned:
                continue  # the getter's process was killed while queued
            event.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        event = Event(self.engine, source=self)
        if self._items:
            event.succeed(self._items.pop(0))
        else:
            self._getters.append(event)
        return event


class Engine:
    """The simulation kernel: a calendar queue of (time, seq, task)."""

    def __init__(self) -> None:
        self.now: float = 0
        self._calendar: list = []
        self._sequence = itertools.count()
        self.events_processed = 0
        self._fault_hooks: dict = {}
        #: Live (not-yet-done) processes in creation order; the guard's
        #: deadlock dump and :meth:`blocked_processes` read this.
        self._live: Dict[Process, None] = {}
        self._guard: Optional[Any] = None

    # -- guard attachment (``repro.guard``) ---------------------------------
    def attach_guard(self, guard: Any) -> None:
        """Install a guard object observing the event loop.

        The guard must provide ``before_event(engine)`` (called once per
        dispatched event, after ``now`` advances) and ``on_drain(engine)``
        (called when the calendar empties).  An optional
        ``on_attach(engine)`` is called here.  One guard per engine.
        """
        if self._guard is not None:
            raise SimulationError("a guard is already attached")
        self._guard = guard
        on_attach = getattr(guard, "on_attach", None)
        if on_attach is not None:
            on_attach(self)

    def detach_guard(self) -> None:
        self._guard = None

    @property
    def guard(self) -> Optional[Any]:
        return self._guard

    def live_processes(self) -> List[Process]:
        """Every registered process that has not finished."""
        return list(self._live)

    def blocked_processes(self) -> List[Process]:
        """Live processes currently waiting on an event/resource/process
        (as opposed to being scheduled on the calendar)."""
        return [process for process in self._live
                if process.waiting_on is not None]

    # -- fault-injection hook bus -------------------------------------------
    def add_fault_hook(self, site: str, hook: Callable) -> None:
        """Register a fault hook at a named seam (one hook per site).

        Model code polls seams via :meth:`fault_hook`; with no hook the
        poll is a single empty-dict check, so an uninstrumented run pays
        no simulated time and (near) no host time.
        """
        if site in self._fault_hooks:
            raise SimulationError(f"fault hook already installed at {site!r}")
        self._fault_hooks[site] = hook

    def remove_fault_hook(self, site: str) -> None:
        self._fault_hooks.pop(site, None)

    def fault_hook(self, site: str) -> Optional[Callable]:
        """The hook installed at ``site``, or None (fast path)."""
        if not self._fault_hooks:
            return None
        return self._fault_hooks.get(site)

    # -- scheduling internals ------------------------------------------------
    def _schedule(self, when: float, process: Process, value: Any) -> None:
        heapq.heappush(self._calendar, (when, next(self._sequence), process, value))

    def _schedule_event(self, when: float, event: Event) -> None:
        heapq.heappush(self._calendar, (when, next(self._sequence), event, None))

    # -- public API ----------------------------------------------------------
    def timeout(self, delay: float) -> Timeout:
        """An event that fires ``delay`` cycles from now."""
        return Timeout(self, delay)

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a process starting this cycle."""
        return Process(self, generator, name=name)

    def resource(self, capacity: int) -> Resource:
        return Resource(self, capacity)

    def store(self) -> Store:
        return Store(self)

    def run(self, until: Optional[float] = None) -> float:
        """Drive the calendar until exhaustion or ``until`` cycles.

        Returns the final simulation time.
        """
        if self._guard is not None:
            return self._run_guarded(until)
        while self._calendar:
            when, _seq, task, value = self._calendar[0]
            if until is not None and when > until:
                self.now = until
                return self.now
            heapq.heappop(self._calendar)
            self.now = when
            self.events_processed += 1
            if isinstance(task, Process):
                if not task.done:   # killed processes may leave stale entries
                    task._step(value)
            else:  # a plain Event scheduled by Timeout
                task.succeed(value)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def _run_guarded(self, until: Optional[float] = None) -> float:
        """The :meth:`run` loop with the attached guard in the loop.

        Identical event dispatch — the guard only *observes* (budgets,
        stall/deadlock detection, cadence-sampled invariants), so
        simulated time is bit-identical to an unguarded run; it signals
        trouble by raising ``repro.guard`` errors out of this loop.
        """
        guard = self._guard
        while self._calendar:
            when, _seq, task, value = self._calendar[0]
            if until is not None and when > until:
                self.now = until
                return self.now
            heapq.heappop(self._calendar)
            self.now = when
            self.events_processed += 1
            guard.before_event(self)
            if isinstance(task, Process):
                if not task.done:
                    task._step(value)
            else:
                task.succeed(value)
        guard.on_drain(self)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: register ``generator``, run to completion, return value."""
        process = self.process(generator, name=name)
        self.run()
        if not process.done:
            raise SimulationError(f"process {process.name!r} deadlocked")
        return process.result
