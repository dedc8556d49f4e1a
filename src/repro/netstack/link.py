"""A point-to-point network link on the event kernel.

Models the 100 Gbps cable between the client and server (Fig. 3):
serialization delay from packet size and link rate, fixed propagation
delay, and optional random loss.  Both stack models and integration tests
move packets through :class:`Link` objects.

Loss comes in three flavours:

* i.i.d. Bernoulli (``loss_probability``) — the classic random-drop cable;
* bursty correlated loss (:class:`GilbertElliottLoss`) — a two-state
  Markov chain where drops cluster into episodes, as congestion loss does
  in real fabrics;
* queue drops — an enqueue hook (``Link.on_enqueue``, the seam fabric
  ports install their RED/tail-drop policy in) rejects the packet.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core import trace
from ..core.engine import Simulator, Timeout
from ..core.units import gbps_to_bytes_per_second
from .packet import Packet

Receiver = Callable[[Packet], None]

# Mark-on-enqueue seam: called with (packet, queue depth in bytes) before a
# packet joins the serialization queue.  Return False to drop the packet
# (tail drop / RED drop); mutate ``packet.ce`` to ECN-mark it.  Fabric
# ports install their RED policy here instead of monkeypatching link
# internals, and tests can install trivial markers in isolation.
EnqueueHook = Callable[[Packet, float], bool]


class GilbertElliottLoss:
    """Two-state (good/bad) Markov loss model: drops arrive in bursts.

    Each packet first advances the chain, then draws a loss from the
    current state's loss probability.  With ``loss_bad`` near 1 and a small
    ``p_bad_to_good``, losses cluster into multi-packet episodes whose mean
    length is ``1 / p_bad_to_good`` — i.i.d. Bernoulli cannot express that.
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_bad: float = 1.0,
        loss_good: float = 0.0,
    ):
        for name, p in (("p_good_to_bad", p_good_to_bad),
                        ("p_bad_to_good", p_bad_to_good),
                        ("loss_bad", loss_bad), ("loss_good", loss_good)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_bad = loss_bad
        self.loss_good = loss_good
        self.bad = False

    def lost(self, rng: np.random.Generator) -> bool:
        if self.bad:
            if rng.random() < self.p_bad_to_good:
                self.bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                self.bad = True
        p = self.loss_bad if self.bad else self.loss_good
        return bool(p) and rng.random() < p


class Link:
    """Unidirectional link delivering packets to a receiver callback."""

    def __init__(
        self,
        sim: Simulator,
        gbps: float = 100.0,
        propagation_s: float = 500e-9,
        loss_probability: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        jitter_s: float = 0.0,
        loss_model: Optional[GilbertElliottLoss] = None,
    ):
        """``jitter_s`` adds uniform random extra delay per packet, which
        can reorder deliveries (multi-path / switch-buffer effects)."""
        if gbps <= 0:
            raise ValueError("link rate must be positive")
        # Closed interval: p = 1.0 is a fully dead link, which fault
        # scenarios legitimately express.
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        if jitter_s < 0:
            raise ValueError("jitter must be non-negative")
        if (loss_probability or jitter_s or loss_model is not None) and rng is None:
            raise ValueError("loss/jitter require an rng")
        self.sim = sim
        self.bytes_per_second = gbps_to_bytes_per_second(gbps)
        self.propagation_s = propagation_s
        self.loss_probability = loss_probability
        self.jitter_s = jitter_s
        self.loss_model = loss_model
        self.rng = rng
        self.receiver: Optional[Receiver] = None
        self.on_enqueue: Optional[EnqueueHook] = None
        self.delivered = 0
        self.lost = 0
        self.queue_lost = 0  # subset of ``lost`` rejected by the enqueue hook
        self._busy_until = 0.0

    def attach(self, receiver: Receiver) -> None:
        self.receiver = receiver

    def send(self, packet: Packet) -> None:
        """Queue a packet for transmission (FIFO serialization)."""
        if self.receiver is None:
            raise RuntimeError("link has no receiver attached")
        rng = self.rng
        if self.loss_model is not None and rng is not None:
            if self.loss_model.lost(rng):
                self._drop("burst")
                return
        if self.loss_probability and rng is not None:
            if rng.random() < self.loss_probability:
                self._drop("loss")
                return
        now = self.sim.now
        if self.on_enqueue is not None:
            # The link serializes FIFO from ``_busy_until``: the backlog in
            # seconds times the line rate is the queue depth, in bytes
            # accepted but not yet on the wire, that the hook sees.
            depth = max(0.0, self._busy_until - now) * self.bytes_per_second
            if not self.on_enqueue(packet, depth):
                self.queue_lost += 1
                self._drop("queue")
                return
        serialization = packet.wire_bytes / self.bytes_per_second
        start = max(now, self._busy_until)
        self._busy_until = start + serialization
        arrival_delay = (start - now) + serialization + self.propagation_s
        if self.jitter_s and rng is not None:
            arrival_delay += float(rng.uniform(0.0, self.jitter_s))
        if trace.TRACING:
            trace.complete("link.tx", trace.NETSTACK, ts=start,
                           dur=serialization, track=trace.subtrack("link"),
                           wire_bytes=packet.wire_bytes)
        # A fresh timeout is pending, so registering on its list directly
        # is what add_callback would do.
        Timeout(self.sim, arrival_delay, packet).callbacks.append(self._deliver)

    def _deliver(self, fired) -> None:
        self.delivered += 1
        self.receiver(fired.value)

    def _drop(self, reason: str) -> None:
        self.lost += 1
        if trace.TRACING:
            trace.instant("link.drop", trace.NETSTACK, ts=self.sim.now,
                          track=trace.subtrack("link"), reason=reason)
