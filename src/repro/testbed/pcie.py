"""PCIe interconnect model on the event kernel.

The link between the SNIC and the host (Fig. 1): transactions pay a
fixed root-complex traversal latency plus serialization at the link's
usable bandwidth, and the link serializes DMA bursts FIFO.  Used by the
testbed's on-path delivery (eSwitch -> SNIC CPU -> PCIe -> host) and by
host-initiated accelerator offload.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.engine import Event, Simulator
from ..hardware.specs import PcieSpec


class PcieLink:
    """One direction of a PCIe link; create two for full duplex."""

    def __init__(self, sim: Simulator, spec: PcieSpec, name: str = "pcie"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.bytes_per_second = spec.bandwidth_gbs * 1e9
        self._busy_until = 0.0
        self.transactions = 0
        self.bytes_moved = 0

    def transfer(self, nbytes: int, value: Any = None) -> Event:
        """Move ``nbytes`` across the link; the event fires on delivery,
        carrying ``value`` (what was moved, for the receiving callback)."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        self.transactions += 1
        self.bytes_moved += nbytes
        serialization = nbytes / self.bytes_per_second
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + serialization
        delay = (start - self.sim.now) + serialization + self.spec.transaction_latency_s
        return self.sim.timeout(delay, value)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        horizon = elapsed if elapsed is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return min(self.bytes_moved / self.bytes_per_second / horizon, 1.0)
