"""Hybrid analytic/simulation probe-engine selection and trust regions.

The measurement layer can answer a rate probe two ways: run the queueing
kernels (:mod:`repro.core.queueing`) or predict the outcome analytically
(:mod:`repro.core.analytic` M/G/1 / batch models).  The *hybrid* engine
uses the analytic answer only inside a **trust region** — a load range
whose edges have been spot-checked by real simulations that agreed with
the analytic prediction within tolerance — and always simulates near the
saturation knee, so every reported verdict stays simulation-backed
(DESIGN.md "Hybrid probe engine").

Trust regions are content-addressed: the cache key hashes the queueing
model's actual inputs (service moments, cores, caps, RTT floor, seed,
request count), so perturbed calibrations — the sensitivity study and
TCO strategy-1 mutate stack costs in place — can never reuse a record
validated against different physics.

Engine selection is process-global, mirroring the cache and trace
layers: the CLI calls :func:`configure_engine` once, workers receive the
resolved mode inside their work-unit args so fan-out never depends on
inherited globals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

ENGINE_HYBRID = "hybrid"
ENGINE_SIM = "sim"
ENGINES = (ENGINE_HYBRID, ENGINE_SIM)
# The validated fast path is the default; ``--engine sim`` restores the
# pure-simulation behaviour (byte-identical to the pre-hybrid output).
DEFAULT_ENGINE = ENGINE_HYBRID


@dataclass(frozen=True)
class HybridConfig:
    """Tolerances of the validated analytic fast path.

    ``sim_window_lo``/``sim_window_hi`` bound the ladder load factors
    (offered rate / analytic capacity anchor) that are *always*
    simulated — the knee window.  Rungs below the window are eligible
    for analytic acceptance, rungs above for analytic rejection, but
    only after the window-edge simulations agreed with the analytic
    prediction (see ``measurement._knee_hybrid``).

    ``rate_margin`` shrinks the trusted region when the sweep answers
    ad-hoc rates analytically: a rate must clear the validated edge by
    this relative margin before the simulation is skipped.

    ``p99_tolerance`` is the maximum relative |sim - analytic| p99
    disagreement at the low spot-check under which analytic *latency*
    is trusted; it only ever gates SLO-bounded probes — throughput
    acceptance never relies on an analytic latency.
    """

    sim_window_lo: float = 0.78
    sim_window_hi: float = 1.12
    rate_margin: float = 0.02
    p99_tolerance: float = 0.35


@dataclass
class TrustRecord:
    """One (model, seed, fidelity)'s validated analytic trust region.

    ``low_factor`` is the highest load factor at which a simulation
    confirmed the analytic *accept* (None: analytic acceptance is not
    trusted and sub-window rungs must be simulated); ``high_factor`` the
    lowest factor with a confirmed analytic *reject*.  ``p99_rel_err``
    records the relative p99 disagreement at the low spot-check and
    ``p99_trusted`` whether it fell inside ``p99_tolerance``.
    """

    anchor_rps: float
    low_factor: Optional[float] = None
    high_factor: Optional[float] = None
    p99_trusted: bool = False
    p99_rel_err: float = float("inf")


_active_engine: str = DEFAULT_ENGINE
_config: HybridConfig = HybridConfig()


def configure_engine(mode: Optional[str]) -> str:
    """Set the process-wide probe engine (None keeps the current one)."""
    global _active_engine
    if mode is not None:
        _active_engine = _validated(mode)
    return _active_engine


def resolve_engine(mode: Optional[str]) -> str:
    """An explicit engine argument, or the process default."""
    if mode is None:
        return _active_engine
    return _validated(mode)


def config() -> HybridConfig:
    return _config


def _validated(mode: str) -> str:
    if mode not in ENGINES:
        raise ValueError(
            f"unknown probe engine {mode!r} (expected one of {ENGINES})")
    return mode
