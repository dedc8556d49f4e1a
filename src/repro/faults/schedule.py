"""Fault specifications and their deterministic materialization.

A :class:`FaultSpec` describes *what* breaks (a named target component, a
fault kind, a severity) and *when* it breaks (one-shot, or a stochastic
MTBF/MTTR renewal process).  :func:`materialize` expands a spec
into concrete ``(start, end)`` episodes over a horizon, drawing any random
quantities from a per-fault named substream of :class:`~repro.core.rng.
RandomStreams` — so adding a fault to a scenario never perturbs the draws
of another, and whole fault schedules replay bit-identically.

:class:`FaultTimeline` is the query side: components (and the vectorized
simulators in :mod:`repro.experiments.faults`) ask it for a fault's
episodes, or for a boolean mask over an arrival vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.rng import RandomStreams

# Fault kinds understood by the built-in models.  The timeline itself is
# agnostic — any string works — but these are the ones the experiment
# scenarios and component hooks interpret.
KIND_OUTAGE = "outage"  # component fully unavailable
KIND_DEGRADE = "degrade"  # thermal throttle: service times x severity
KIND_CORE_LOSS = "core-loss"  # severity = fraction of cores lost
KIND_BURST_LOSS = "burst-loss"  # correlated (Gilbert-Elliott) loss episode

MODE_ONE_SHOT = "one-shot"
MODE_STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what it hits, how severe it is, and its time pattern."""

    name: str
    target: str  # component identifier ("accel", "snic-cpu", "link", ...)
    kind: str = KIND_OUTAGE
    severity: float = 1.0  # kind-specific (throttle factor, lost-core frac...)
    mode: str = MODE_ONE_SHOT
    start_s: float = 0.0
    duration_s: float = 0.0  # one-shot episode length
    mtbf_s: float = 0.0  # stochastic: mean time between failures
    mttr_s: float = 0.0  # stochastic: mean time to repair
    # Correlation domain: stochastic specs sharing a ``correlation`` key
    # draw from one substream *re-created per spec*, so they materialize
    # identical episodes — a rack-level power event takes every node in
    # the rack down together rather than independently.
    correlation: Optional[str] = None

    def __post_init__(self):
        if self.mode not in (MODE_ONE_SHOT, MODE_STOCHASTIC):
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.mode == MODE_STOCHASTIC and (self.mtbf_s <= 0 or self.mttr_s <= 0):
            raise ValueError("stochastic fault needs mtbf_s > 0 and mttr_s > 0")
        if self.duration_s < 0 or self.start_s < 0:
            raise ValueError("fault times must be non-negative")

    # -- constructors --------------------------------------------------------

    @classmethod
    def one_shot(cls, name: str, target: str, start_s: float, duration_s: float,
                 kind: str = KIND_OUTAGE, severity: float = 1.0) -> "FaultSpec":
        return cls(name=name, target=target, kind=kind, severity=severity,
                   mode=MODE_ONE_SHOT, start_s=start_s, duration_s=duration_s)



Episode = Tuple[float, float]  # [start, end) in simulated seconds


def materialize(spec: FaultSpec, horizon_s: float,
                streams: Optional[RandomStreams] = None) -> List[Episode]:
    """Expand a spec into concrete episodes within ``[0, horizon_s)``.

    Stochastic faults draw up/down durations from the substream named
    ``fault:{spec.name}`` so each fault owns an independent, replayable
    stream.
    """
    if horizon_s <= 0:
        return []
    if spec.mode == MODE_ONE_SHOT:
        if spec.start_s >= horizon_s or spec.duration_s == 0:
            return []
        return [(spec.start_s, min(spec.start_s + spec.duration_s, horizon_s))]
    # Stochastic: alternating exponential up/down times (MTBF / MTTR).
    streams = streams or RandomStreams()
    if spec.correlation is not None:
        # Fresh (stateless) stream per spec: every spec sharing the key
        # replays the identical draw sequence => identical episodes.
        rng = streams.fresh(f"fault:{spec.correlation}")
    else:
        rng = streams.stream(f"fault:{spec.name}")
    episodes = []
    t = spec.start_s + float(rng.exponential(spec.mtbf_s))
    while t < horizon_s:
        repair = float(rng.exponential(spec.mttr_s))
        episodes.append((t, min(t + repair, horizon_s)))
        t += repair + float(rng.exponential(spec.mtbf_s))
    return episodes


class FaultTimeline:
    """Materialized schedule: which faults are active when.

    Built once per run from a list of specs; queried per arrival vector
    (numpy mask) by fault-aware simulators.
    """

    def __init__(self, specs: Sequence[FaultSpec], horizon_s: float,
                 streams: Optional[RandomStreams] = None):
        self.horizon_s = horizon_s
        self.specs = list(specs)
        self._episodes: Dict[str, List[Episode]] = {
            spec.name: materialize(spec, horizon_s, streams) for spec in self.specs
        }

    def episodes(self, name: str) -> List[Episode]:
        return list(self._episodes[name])

    def active_mask(self, times: np.ndarray, target: str,
                    kind: Optional[str] = None) -> np.ndarray:
        """Boolean mask over ``times``: is a matching fault active?"""
        mask = np.zeros(len(times), dtype=bool)
        for spec in self.specs:
            if spec.target != target:
                continue
            if kind is not None and spec.kind != kind:
                continue
            for start, end in self._episodes[spec.name]:
                mask |= (times >= start) & (times < end)
        return mask
