"""Queueing resources built on the event kernel.

`Resource` models a pool of identical servers (e.g. the 8 cores of the
BlueField-2 CPU) with a FIFO request queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .engine import Event, Simulator, SimulationError


class Request(Event):
    """A pending claim on a `Resource`; fires when a server is granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
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
        # busy-time accounting for utilization metrics
        self._busy_area = 0.0
        self._last_change = 0.0

    def _account(self) -> None:
        now = self.sim.now
        self._busy_area += self._in_use * (now - self._last_change)
        self._last_change = now

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Mean fraction of servers busy since t=0 (or over ``elapsed``)."""
        self._account()
        horizon = elapsed if elapsed is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return self._busy_area / (horizon * self.capacity)

    def request(self) -> Request:
        request = Request(self)
        if self._in_use < self.capacity and not self._waiting:
            self._account()
            self._in_use += 1
            request.trigger(self)
        else:
            self._waiting.append(request)
        return request

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release on idle resource {self.name!r}")
        self._account()
        if self._waiting:
            # hand the server straight to the next waiter
            self._waiting.popleft().trigger(self)
        else:
            self._in_use -= 1
