"""Queueing resources built on the event kernel.

`Resource` models a pool of identical servers (e.g. the 8 cores of the
BlueField-2 CPU) with a FIFO request queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .engine import PENDING, Event, Simulator, SimulationError


class Request(Event):
    """A pending claim on a `Resource`; fires when a server is granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.sim = resource.sim  # Event.__init__, inlined
        self.callbacks = []
        self.value = None
        self._state = PENDING
        self.resource = resource


class Resource:
    """A FIFO multi-server resource.

    Usage inside a process::

        request = resource.request()
        yield request
        yield sim.timeout(service_time)
        resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: Deque[Request] = deque()

    def request(self) -> Request:
        request = Request(self)
        if self._in_use < self.capacity and not self._waiting:
            self._in_use += 1
            request.trigger(self)
        else:
            self._waiting.append(request)
        return request

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release on idle resource {self.name!r}")
        if self._waiting:
            # hand the server straight to the next waiter
            self._waiting.popleft().trigger(self)
        else:
            self._in_use -= 1
