"""Timeout/retry with exponential backoff and jitter.

Production request paths survive lossy or flapping links by retransmitting
after a timeout; the backoff doubles per attempt and is jittered so that
synchronized clients do not retry in lockstep.  :func:`simulate_retries`
is the vectorized form the fluid fault experiments use: given per-attempt
loss draws, it returns delivery outcomes and the retry delay each request
accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff parameters for one request path.

    ``max_elapsed_s`` optionally bounds the *total* time a request may
    spend retrying: once the elapsed time (base service plus accumulated
    backoff) reaches the deadline, no further attempt is scheduled even
    if ``max_attempts`` has budget left.  Unbounded (``None``) keeps the
    attempt-count-only behavior.
    """

    timeout_s: float = 100e-6  # first-attempt timeout
    max_attempts: int = 5
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.2  # +- fraction applied to each backoff
    max_elapsed_s: Optional[float] = None  # total retry deadline

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        if self.max_elapsed_s is not None:
            if self.max_elapsed_s <= 0:
                raise ValueError("max_elapsed_s must be positive")
            if self.max_elapsed_s < self.timeout_s:
                raise ValueError(
                    "max_elapsed_s must be >= timeout_s (the deadline "
                    "cannot be shorter than one attempt's timeout)"
                )

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Delay before retry number ``attempt`` (0-based failed attempt)."""
        base = self.timeout_s * self.backoff_factor**attempt
        if self.jitter_fraction:
            base *= 1.0 + float(
                rng.uniform(-self.jitter_fraction, self.jitter_fraction)
            )
        return base

    def within_deadline(self, elapsed_s: float) -> bool:
        """Whether another retry may be scheduled after ``elapsed_s``."""
        return self.max_elapsed_s is None or elapsed_s < self.max_elapsed_s


@dataclass
class RetryOutcome:
    """Result of driving one request through the retry loop."""

    delivered: bool
    attempts: int
    extra_delay_s: float  # retry/backoff time added on top of base service


def simulate_retries(
    lost: Callable[[int], bool],
    policy: RetryPolicy,
    rng: np.random.Generator,
) -> RetryOutcome:
    """Drive one request's attempt sequence without the kernel.

    ``lost(attempt_index)`` reports whether that transmission attempt was
    lost; backoff delays accumulate into ``extra_delay_s``.
    """
    delay = 0.0
    for i in range(policy.max_attempts):
        if not lost(i):
            return RetryOutcome(delivered=True, attempts=i + 1, extra_delay_s=delay)
        if i + 1 >= policy.max_attempts:
            break
        backoff = policy.backoff_s(i, rng)
        if not policy.within_deadline(delay + backoff):
            return RetryOutcome(delivered=False, attempts=i + 1,
                                extra_delay_s=delay)
        delay += backoff
    return RetryOutcome(
        delivered=False, attempts=policy.max_attempts, extra_delay_s=delay
    )
