"""Discrete-event simulation kernel.

A minimal, deterministic event engine in the style of SimPy: processes are
Python generators that yield :class:`Event` objects (timeouts, resource
grants, store gets) and are resumed when those events fire.  Everything in
the library — packet arrivals, CPU service, accelerator batches, power
sensor sampling — runs on top of this kernel.

Determinism: events scheduled for the same simulated time fire in FIFO
order of scheduling (a monotonic sequence number breaks ties), so repeated
runs with the same seeds produce identical traces.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..obs import metrics
from . import trace


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, double triggers...)."""


# Event states, as module constants: the hot paths read them as globals.
PENDING, TRIGGERED, FIRED = 0, 1, 2


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, is *triggered* with an optional value, and
    then fires: every registered callback runs once, in registration order.
    Waiting on an already-fired event resumes the waiter immediately (at the
    current simulation time).
    """

    # ``value`` is what the event carries once triggered; read it, never
    # set it (``trigger`` does).  A plain slot, not a property: callbacks
    # on the packet path read it for every delivery.
    __slots__ = ("sim", "callbacks", "value", "_state")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self.value: Any = None
        self._state = PENDING

    @property
    def triggered(self) -> bool:
        return self._state != PENDING

    @property
    def fired(self) -> bool:
        return self._state == FIRED

    def trigger(self, value: Any = None) -> "Event":
        """Schedule this event to fire now (at the current sim time)."""
        if self._state != PENDING:
            raise SimulationError("event triggered twice")
        self._state = TRIGGERED
        self.value = value
        sim = self.sim
        sim._sequence += 1  # Simulator._schedule_event, inlined
        heapq.heappush(sim._queue, (sim.now, sim._sequence, self))
        return self

    def _fire(self) -> None:
        self._state = FIRED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._state == FIRED:
            # Fire immediately but asynchronously, preserving ordering.
            self.sim._schedule_event(0.0, _DeferredCallback(self, callback))
        else:
            self.callbacks.append(callback)


class _DeferredCallback:
    """A queue entry that re-delivers an already-fired event to one late
    callback — cheaper than allocating a full holder Event, and the
    callback sees the original event (same ``value``)."""

    __slots__ = ("event", "callback")

    def __init__(self, event: Event, callback: Callable[[Event], None]):
        self.event = event
        self.callback = callback

    def _fire(self) -> None:
        self.callback(self.event)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Fast path: timeouts are the most-allocated event by far, and
        # they are born TRIGGERED — initialize the slots directly instead
        # of paying for Event.__init__ plus a second state assignment,
        # and push onto the queue as Simulator._schedule_event does.
        self.sim = sim
        self.callbacks = []
        self.value = value
        self._state = TRIGGERED
        sim._sequence += 1
        heapq.heappush(sim._queue, (sim.now + delay, sim._sequence, self))


class Process(Event):
    """Drives a generator; the process itself is an event that fires when
    the generator returns (with the generator's return value)."""

    __slots__ = ("_generator", "name", "_wake")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        self.sim = sim  # Event.__init__, inlined
        self.callbacks = []
        self.value = None
        self._state = PENDING
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # One bound method for every wakeup, not a new one per yield.
        self._wake = self._resume
        # Kick off on the next kernel step at the current time.
        starter = Event(sim)
        starter.callbacks.append(self._wake)
        starter._state = TRIGGERED
        sim._schedule_event(0.0, starter)

    def _resume(self, event: Event) -> None:
        if self._state != PENDING:
            return  # already finished; drop stale wakeups
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, "
                "expected an Event"
            )
        target.add_callback(self._wake)


class Simulator:
    """The event loop: a time-ordered queue of triggered events."""

    def __init__(self):
        # Current simulation time in seconds; only the run loop advances
        # it.  A plain attribute, not a property: every hop, segment and
        # resource grant reads it.
        self.now = 0.0
        # Entries are (time, seq, firable): anything with a ``_fire``
        # method (Events, deferred callbacks).  ``seq`` is a plain int —
        # cheaper to bump than an itertools.count and it keeps same-time
        # entries in FIFO order without ever comparing the payload.
        self._queue: List[Tuple[float, int, Any]] = []
        self._sequence = 0
        # Flight-recorder bookkeeping: fired-event count and cumulative
        # run-loop wall time.  Folded into the process-wide metric
        # counters at the end of every run() call (not per event — the
        # run loop itself only pays one local integer add per event).
        self.events_fired = 0
        self.run_wall_s = 0.0
        self._folded_scheduled = 0
        self._folded_fired = 0

    @property
    def events_scheduled(self) -> int:
        """Total events ever pushed onto the queue."""
        return self._sequence

    def _schedule_event(self, delay: float, event: Any) -> None:
        self._sequence += 1
        heapq.heappush(self._queue, (self.now + delay, self._sequence, event))

    # -- public API ---------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a concurrently running process."""
        return Process(self, generator, name)

    def step(self) -> bool:
        """Fire the next event; return False when the queue is empty."""
        if not self._queue:
            return False
        time, _, event = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError("time went backwards")
        self.now = time
        event._fire()
        self.events_fired += 1
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past")
        # Inlined step loop: one heappop and one _fire per event, without
        # the peek/step call overhead — this is the kernel's hot loop.
        # Instrumentation stays out of it: one local integer add per
        # event, folded into the process counters once on exit.
        queue = self._queue
        pop = heapq.heappop
        # Entries are unique (time, seq) keys, so an entry popped past the
        # horizon and pushed back leaves the firing order unchanged.
        horizon = float("inf") if until is None else until
        fired = 0
        wall_start = perf_counter()
        try:
            while queue:
                entry = pop(queue)
                time = entry[0]
                if time > horizon:
                    heapq.heappush(queue, entry)
                    self.now = until
                    return self.now
                self.now = time
                entry[2]._fire()
                fired += 1
            if until is not None:
                self.now = until
            return self.now
        finally:
            self.events_fired += fired
            self.run_wall_s += perf_counter() - wall_start
            self._fold_instrumentation()

    def _fold_instrumentation(self) -> None:
        """Publish scheduled/fired deltas since the last fold."""
        scheduled = self._sequence - self._folded_scheduled
        fired = self.events_fired - self._folded_fired
        if scheduled:
            metrics.counter(metrics.EVENTS_SCHEDULED).inc(scheduled)
        if fired:
            metrics.counter(metrics.EVENTS_FIRED).inc(fired)
        self._folded_scheduled = self._sequence
        self._folded_fired = self.events_fired
        if trace.TRACING:
            trace.instant("sim.run", trace.SIM, ts=self.now,
                          events_fired=self.events_fired,
                          events_scheduled=self._sequence)

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")
