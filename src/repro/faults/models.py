"""SNIC-path fault state for the vectorized simulators.

The load balancer and the fluid fault experiments ask "how broken is the
SNIC path at time t" of a :class:`SnicHealth` built directly from the
:class:`~repro.faults.schedule.FaultTimeline`.  It interprets three fault
kinds: ``outage`` removes the component, ``degrade`` multiplies its
service times by the fault severity (thermal throttle / degraded clock),
and ``core-loss`` removes a severity-fraction of its cores (which also
inflates effective per-request service).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .schedule import KIND_CORE_LOSS, KIND_DEGRADE, KIND_OUTAGE, FaultTimeline


class SnicHealth:
    """Timestamp-indexed health of the SNIC path for fluid simulators.

    Wraps a timeline and answers, for any simulated time ``t``, whether the
    SNIC path can serve at all and what multiplier applies to its service
    times.  ``target`` selects which timeline target name represents the
    SNIC path ("accel" for accelerator functions, "snic-cpu" otherwise).
    """

    def __init__(self, timeline: FaultTimeline, target: str = "snic"):
        self.timeline = timeline
        self.target = target

    def service_profile(
        self, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized ``(available, service_factor, unavailable_until)``.

        Per-packet simulators precompute health for a whole arrival
        vector at once.  ``service_factor`` is ``inf`` wherever the path
        is down (callers never read it there); ``unavailable_until``
        equals the timestamp itself wherever the path is up.
        """
        times = np.asarray(times, dtype=float)
        n = len(times)
        available = ~self.timeline.active_mask(
            times, self.target, KIND_OUTAGE
        )
        throttle = np.ones(n)
        lost = np.zeros(n)
        until = times.copy()
        for spec in self.timeline.specs:
            if spec.target != self.target:
                continue
            for start, end in self.timeline.episodes(spec.name):
                covered = (times >= start) & (times < end)
                if not covered.any():
                    continue
                if spec.kind == KIND_DEGRADE:
                    np.maximum(throttle, spec.severity, out=throttle,
                               where=covered)
                elif spec.kind == KIND_CORE_LOSS:
                    np.maximum(lost, spec.severity, out=lost,
                               where=covered)
                elif spec.kind == KIND_OUTAGE:
                    np.maximum(until, end, out=until, where=covered)
        alive = np.maximum(0.0, 1.0 - lost)
        with np.errstate(divide="ignore"):
            factor = np.maximum(throttle, 1.0) / alive
        factor[~available] = np.inf
        return available, factor, until

    def outage_windows(self) -> List[tuple]:
        windows = []
        for spec in self.timeline.specs:
            if spec.target == self.target and spec.kind == KIND_OUTAGE:
                windows.extend(self.timeline.episodes(spec.name))
        return sorted(windows)
