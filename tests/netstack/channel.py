"""Test fixture: a pair of links between two endpoints."""

from typing import Optional

import numpy as np

from repro.core.engine import Simulator
from repro.netstack.link import Link


class DuplexChannel:
    """``forward`` carries client-to-server packets, ``backward`` replies."""

    def __init__(self, sim: Simulator, gbps: float = 100.0,
                 propagation_s: float = 500e-9,
                 loss_probability: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 jitter_s: float = 0.0):
        self.forward = Link(sim, gbps, propagation_s, loss_probability, rng,
                            jitter_s)
        self.backward = Link(sim, gbps, propagation_s, loss_probability, rng,
                             jitter_s)
