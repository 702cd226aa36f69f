"""Discrete-event simulation engine.

A deliberately small, deterministic event-driven kernel in the spirit of
SimPy, tuned for cycle-level architecture modelling.  Time is measured in
integer (or float) *cycles*.  The engine provides:

* :class:`Engine` — the event loop over the bucketed calendar queue (see
  :mod:`repro.sim.calendar`).
* :class:`Process` — a coroutine (generator) driven by the engine.  A process
  ``yield``\\ s *waitables*: a cycle delay (``yield engine.timeout(n)``), an
  :class:`Event`, or a resource request.
* :class:`Event` — a one-shot completion signal carrying an optional value.
* :class:`Resource` — a counting resource with a FIFO wait queue (used to
  model scoreboard slots, queue ports, MSHRs, ...).
* :class:`Store` — an unbounded FIFO message channel (command/result queues).

The kernel is single-threaded and fully deterministic: events scheduled for
the same cycle fire in insertion order.  The ordering contract lives in
:mod:`repro.sim.calendar`; the equivalence property suite holds this engine
to the frozen heap-based engine in ``tests/sim/legacy_engine.py``.

The engine also carries the harness safety net's attachment point: an
optional *guard* (see :mod:`repro.guard`) observes every event, detects
livelock, checks model invariants, and detects deadlock when the calendar
drains with processes still blocked.  With no guard attached the event
loop is byte-for-byte the unguarded fast path.

A program reads how far it may run ahead of the calendar from
:meth:`Engine.next_event_time` and :func:`repro.sim.replay.observer` only.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Dict, Generator, List, Optional

from .calendar import BucketCalendar

#: Upper bound on pooled Timeout records.  Steady state needs roughly one
#: per concurrently pending recyclable timeout, which is tiny; the cap only
#: guards against a pathological schedule parking the pool full of husks.
_TIMEOUT_POOL_MAX = 512


class SimulationError(RuntimeError):
    """Raised for illegal engine usage (e.g. waiting on a triggered event)."""


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` triggers it, wakes all
    waiting processes, and records ``value``.  Triggering twice is an error.

    ``source`` back-references the object that minted the event (a
    :class:`Resource` for acquire events, a :class:`Store` for get events)
    so guard dumps can say *what* a blocked process is queued on.
    """

    __slots__ = ("engine", "triggered", "value", "_waiters", "source")

    def __init__(self, engine: "Engine", source: Any = None) -> None:
        self.engine = engine
        self.triggered = False
        self.value: Any = None
        self._waiters: List["Process"] = []
        self.source = source

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, delivering ``value`` to every waiter."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            engine = self.engine
            schedule = engine._schedule
            now = engine.now
            for process in waiters:
                schedule(now, process, value)
        return self

    def _add_waiter(self, process: "Process") -> None:
        if self.triggered:
            # Already done: resume the process immediately (same cycle).
            self.engine._schedule(self.engine.now, process, self.value)
        else:
            self._waiters.append(process)


class Timeout(Event):
    """An event that triggers automatically ``at`` a fixed cycle.

    Allocated once per ``yield engine.timeout(n)`` — the single most
    common allocation in any simulation — so only the ``Engine.timeout``
    closure builds one (see :meth:`Engine._make_timeout`).
    """

    __slots__ = ("at",)


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
                 "waiting_on")

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
            engine = self.engine
            engine._live.pop(self, None)
            waiters = self._waiters
            if waiters:
                self._waiters = []
                schedule = engine._schedule
                now = engine.now
                for waiter in waiters:
                    schedule(now, waiter, self.result)
            return
        if target.__class__ is Timeout:
            # The dominant yield: a fresh (never-triggered unless re-
            # yielded) timeout.  Inlined ``target._add_waiter(self)``.
            self.waiting_on = target
            if target.triggered:
                engine = self.engine
                engine._schedule(engine.now, self, target.value)
            else:
                target._waiters.append(self)
        elif target is None:
            engine = self.engine
            engine._schedule(engine.now, self, None)
        elif isinstance(target, (Event, Process)):
            self.waiting_on = target
            if target.triggered:
                engine = self.engine
                engine._schedule(engine.now, self, target.value)
            else:
                target._waiters.append(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {target!r}"
            )


class Resource:
    """A counting resource with ``capacity`` slots and a FIFO wait queue."""

    __slots__ = ("engine", "capacity", "in_use", "_queue")

    def __init__(self, engine: "Engine", capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._queue: List[Event] = []

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
            self._queue.append(event)
        return event

    def release(self) -> None:
        """Free one slot: hand it straight to the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError("release without matching acquire")
        if self._queue:
            self._queue.pop(0).succeed(self)
        else:
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
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.engine, source=self)
        if self._items:
            event.succeed(self._items.pop(0))
        else:
            self._getters.append(event)
        return event


class Engine:
    """The simulation kernel: a bucketed calendar queue of (time, seq, task).

    Fired ``Timeout`` records nothing else references are recycled through
    a free-list (see :meth:`run`).  ``tests/sim/test_calendar_equivalence.py``
    holds the engine — calendar, drain loop and free-list — to the frozen
    heap-based engine in ``tests/sim/legacy_engine.py``.
    """

    __slots__ = ("now", "_calendar", "_schedule", "timeout", "_sequence",
                 "events_processed", "_fault_hooks", "_live", "_guard",
                 "_timeout_pool")

    def __init__(self) -> None:
        self.now: float = 0
        self._calendar = BucketCalendar()
        self._sequence = itertools.count()
        self.events_processed = 0
        self._fault_hooks: dict = {}
        #: Free-list of fired Timeout records awaiting reuse (see the
        #: specialised drain loop in :meth:`run`): a fired timeout nothing
        #: else references any more is reset and handed back out by the
        #: ``timeout()`` closure instead of allocating a fresh one —
        #: removing the last per-hop allocation on the hot path.
        self._timeout_pool: List[Timeout] = []
        #: Live (not-yet-done) processes in creation order; the guard's
        #: deadlock dump and :meth:`blocked_processes` read this.
        self._live: Dict[Process, None] = {}
        self._guard: Optional[Any] = None
        #: ``_schedule(when, task, value)`` is *the* scheduling primitive —
        #: called for every event hop, so it is a closure over the calendar
        #: internals (captured locals, no attribute hops, no intermediate
        #: method layer).  ``timeout(delay)`` — the single most common
        #: engine call — is likewise a closure that allocates, initialises,
        #: and schedules the Timeout in one hop.
        self._schedule = self._make_scheduler()
        self.timeout = self._make_timeout()

    def _make_scheduler(self) -> Callable[[float, Any, Any], None]:
        """Build the scheduling closure (the calendar push inlined)."""
        next_seq = self._sequence.__next__
        buckets = self._calendar._buckets
        cycles = self._calendar._cycles
        get_bucket = buckets.get

        def schedule(when: float, task: Any, value: Any) -> None:
            bucket = get_bucket(cycle := int(when))
            if bucket is None:
                buckets[cycle] = bucket = []
                heappush(cycles, cycle)
            heappush(bucket, (when, next_seq(), task, value))
        return schedule

    def _make_timeout(self) -> Callable[[float], "Timeout"]:
        """Build the ``timeout(delay)`` closure, the only code that creates
        :class:`Timeout` records.

        It allocates the event, writes its slots and schedules it at
        ``now + delay`` in a single call frame with the calendar push
        inlined, handing out recycled records from the free-list first.
        """
        next_seq = self._sequence.__next__
        new = Timeout.__new__
        buckets = self._calendar._buckets
        cycles = self._calendar._cycles
        get_bucket = buckets.get
        pool = self._timeout_pool

        def timeout(delay: float) -> Timeout:
            if delay < 0:
                raise SimulationError(f"negative timeout: {delay}")
            if pool:
                # Recycled record (see the drain loop): ``_waiters`` is
                # already an empty list and ``source`` is still None —
                # only the per-fire state resets.
                event = pool.pop()
                event.triggered = False
                event.value = None
            else:
                event = new(Timeout)
                event.engine = self
                event.triggered = False
                event.value = None
                event._waiters = []
                event.source = None
            event.at = at = self.now + delay
            bucket = get_bucket(cycle := int(at))
            if bucket is None:
                buckets[cycle] = bucket = []
                heappush(cycles, cycle)
            heappush(bucket, (at, next_seq(), event, None))
            return event
        return timeout

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

    def blocked_processes(self) -> List[Process]:
        """Live processes currently waiting on an event/resource/process
        (as opposed to being scheduled on the calendar)."""
        return [process for process in self._live
                if process.waiting_on is not None]

    def next_event_time(self) -> Optional[float]:
        """Earliest pending calendar time, or ``None`` when nothing is queued.

        Safe to call from *inside* a running process — the windowed
        trace-replay fast path (:mod:`repro.sim.replay`) uses it as the
        horizon up to which no other process can possibly run.  During the
        specialised bucket drain loop the head bucket may be an
        already-emptied husk whose deregistration is deferred to the end of
        the drain, so an empty head falls through to the overflow heap's
        children (only the head bucket can ever be empty).
        """
        calendar = self._calendar
        cycles = calendar._cycles
        if not cycles:
            return None
        bucket = calendar._buckets.get(cycles[0])
        if bucket:
            return bucket[0][0]
        if len(cycles) == 1:
            return None
        head = cycles[1] if len(cycles) == 2 else min(cycles[1], cycles[2])
        return calendar._buckets[head][0][0]

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

    # -- public API ----------------------------------------------------------
    # ``timeout(delay)`` — an event that fires ``delay`` cycles from now —
    # is an instance closure assigned in ``__init__`` (see
    # :meth:`_make_timeout`).

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a process starting this cycle."""
        return Process(self, generator, name=name)

    def resource(self, capacity: int) -> Resource:
        return Resource(self, capacity)

    def run(self, until: Optional[float] = None) -> float:
        """Drive the calendar until exhaustion or ``until`` cycles.

        Returns the final simulation time.
        """
        if self._guard is not None:
            return self._run_guarded(until)
        calendar = self._calendar
        if until is None:
            # The dominant mode (run to exhaustion): no peek, no bound
            # check — pop and dispatch until the calendar drains.  The
            # calendar pop is inlined against the bucket structures so each
            # event costs a dict probe + tiny heappop, not a method call.
            events = 0
            buckets = calendar._buckets
            cycles = calendar._cycles
            process_cls = Process
            timeout_cls = Timeout
            next_seq = self._sequence.__next__
            pool = self._timeout_pool
            refcount = getrefcount
            try:
                while cycles:
                    # Drain one bucket to exhaustion.  All entries pushed
                    # while draining land in this bucket or a later one
                    # (time never rewinds), so the inner loop only has to
                    # re-test the bucket itself — no dict probe, no
                    # cycle-heap peek per event.
                    cycle = cycles[0]
                    bucket = buckets[cycle]
                    while bucket:
                        when, _seq, task, value = heappop(bucket)
                        self.now = when
                        events += 1
                        if task.__class__ is timeout_cls:
                            task.triggered = True
                            # No fresh empty list: once ``triggered`` is
                            # set nothing reads ``_waiters`` again
                            # (re-yields short-circuit on ``triggered``).
                            waiters = task._waiters
                            if waiters:
                                if bucket:
                                    # Other entries share this bucket: wakes
                                    # go through the calendar, but straight
                                    # into the bucket we are draining —
                                    # skipping the int()/dict probe of the
                                    # generic schedule path.  ``waiting_on``
                                    # goes back to None (its documented
                                    # scheduled state), which also releases
                                    # the waiter's reference so the timeout
                                    # can be recycled below.
                                    for process in waiters:
                                        process.waiting_on = None
                                        heappush(bucket, (when, next_seq(),
                                                          process, None))
                                elif len(waiters) == 1:
                                    # Fused wake: the calendar holds nothing
                                    # else at this timestamp (bucket
                                    # drained; all other buckets are later
                                    # cycles), so the scheduled wake would
                                    # be the very next pop — step the
                                    # waiter now and skip the push/pop
                                    # round-trip.  The wake still counts as
                                    # an event so `events_processed`
                                    # matches the generic dispatch exactly.
                                    events += 1
                                    waiters[0]._step(None)
                                else:
                                    for process in waiters:
                                        process.waiting_on = None
                                        heappush(bucket, (when, next_seq(),
                                                          process, None))
                            # Recycle the fired record when nothing else
                            # references it any more (refcount 2 = the
                            # ``task`` local + getrefcount's argument): a
                            # process that kept the timeout — e.g.
                            # ``t = engine.timeout(n); yield t`` — or a
                            # still-set ``waiting_on`` pins it and the
                            # record is simply left to the GC.
                            if (refcount(task) == 2
                                    and len(pool) < _TIMEOUT_POOL_MAX):
                                waiters.clear()
                                pool.append(task)
                        elif (task.__class__ is process_cls
                                or isinstance(task, process_cls)):
                            # Never finished: a process is scheduled or
                            # waits on one target at a time until it steps.
                            task._step(value)
                        else:
                            task.succeed(value)
                    del buckets[cycle]
                    heappop(cycles)
            finally:
                self.events_processed += events
                # If an exception unwound the drain loop between emptying
                # the head bucket and deregistering it, drop the empty husk
                # so the calendar stays consistent.
                while cycles and not buckets.get(cycles[0]):
                    buckets.pop(cycles[0], None)
                    heappop(cycles)
            return self.now
        pop = calendar.pop
        min_time = calendar.min_time
        while calendar:
            when = min_time()
            if when > until:
                self.now = until
                return self.now
            when, _seq, task, value = pop()
            self.now = when
            self.events_processed += 1
            if isinstance(task, Process):
                task._step(value)
            else:
                task.succeed(value)
        self.now = max(self.now, until)
        return self.now

    def _run_guarded(self, until: Optional[float] = None) -> float:
        """The :meth:`run` loop with the attached guard in the loop.

        Identical event dispatch — the guard only *observes* (stall and
        deadlock detection, sampled invariants), so
        simulated time is bit-identical to an unguarded run; it signals
        trouble by raising ``repro.guard`` errors out of this loop.
        """
        guard = self._guard
        calendar = self._calendar
        while calendar:
            when = calendar.min_time()
            if until is not None and when > until:
                self.now = until
                return self.now
            when, _seq, task, value = calendar.pop()
            self.now = when
            self.events_processed += 1
            guard.before_event(self)
            if isinstance(task, Process):
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
