"""The leaf-spine fabric realized on the event kernel.

Every switch port is a :class:`FabricPort`: a unidirectional
:class:`~repro.netstack.link.Link` plus a bounded byte queue with
RED/ECN marking installed through the link's mark-on-enqueue seam
(``Link.on_enqueue``) — no link internals are touched.  Ports count
enqueues, marks and drops both locally (for scenario results) and in
the dotted-name metric registry (``fabric.port.depth``,
``fabric.ecn.marked``, ...) so per-port queue stats merge byte-
identically at any ``--jobs N`` like every other counter.

Routing is deterministic: minimal intra-rack paths, and inter-rack
flows pick their spine by a stable five-tuple hash (ECMP without
randomness), so a scenario replays identically from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.engine import Simulator
from ..netstack.link import Link
from ..netstack.packet import Packet
from ..obs import metrics
from .topology import TopologySpec

# Queue-depth histogram bounds: 1 KB .. 10 MB, 4 buckets per decade.
DEPTH_BUCKETS = metrics.log_buckets(1e3, 1e7, per_decade=4)

M_ENQUEUED = "fabric.port.enqueued"
M_DROPPED = "fabric.port.dropped"
M_MARKED = "fabric.ecn.marked"
M_DEPTH = "fabric.port.depth"


@dataclass(frozen=True)
class RedConfig:
    """RED thresholds in queue bytes (classic Floyd/Jacobson shape)."""

    min_bytes: int
    max_bytes: int
    max_p: float = 0.6
    # Mark ECT packets (ECN) instead of dropping them; non-ECT packets
    # are always dropped when RED fires.
    ecn: bool = True

    def decision(self, depth_bytes: float, rng: np.random.Generator) -> str:
        """"pass", "mark" or "drop" for a packet seeing this depth."""
        if depth_bytes < self.min_bytes:
            return "pass"
        if depth_bytes >= self.max_bytes:
            return "mark"
        span = self.max_bytes - self.min_bytes
        p = self.max_p * (depth_bytes - self.min_bytes) / span
        return "mark" if rng.random() < p else "pass"


@dataclass
class PortStats:
    name: str
    enqueued: int
    delivered: int
    marked: int
    dropped: int
    peak_depth_bytes: float


class FabricPort:
    """One switch output port: link + bounded queue + AQM."""

    def __init__(self, sim: Simulator, name: str, gbps: float,
                 propagation_s: float, buffer_bytes: int,
                 red: Optional[RedConfig],
                 rng: Optional[np.random.Generator]):
        if red is not None and rng is None:
            raise ValueError("RED marking needs an rng")
        self.name = name
        self.buffer_bytes = buffer_bytes
        self.red = red
        self.rng = rng
        self.link = Link(sim, gbps=gbps, propagation_s=propagation_s)
        self.link.on_enqueue = self._on_enqueue
        self.enqueued = 0
        self.marked = 0
        self.dropped = 0
        self.peak_depth_bytes = 0.0
        self._m_enqueued = metrics.counter(
            M_ENQUEUED, help="packets accepted into fabric port queues")
        self._m_dropped = metrics.counter(
            M_DROPPED, help="packets dropped at fabric ports (tail + RED)")
        self._m_marked = metrics.counter(
            M_MARKED, help="ECN CE marks set by fabric ports")
        self._m_depth = metrics.histogram(
            M_DEPTH, buckets=DEPTH_BUCKETS,
            help="queue depth in bytes observed at each enqueue")

        # A port sends straight into its link: one call per hop, not two.
        self.send: Callable[[Packet], None] = self.link.send

    def attach(self, receiver: Callable[[Packet], None]) -> None:
        self.link.attach(receiver)

    # -- the AQM policy, installed via the link's enqueue seam -------------

    def _on_enqueue(self, packet: Packet, depth_bytes: float) -> bool:
        self._m_depth.observe(depth_bytes)
        if depth_bytes > self.peak_depth_bytes:
            self.peak_depth_bytes = depth_bytes
        if depth_bytes + packet.wire_bytes > self.buffer_bytes:
            self.dropped += 1
            self._m_dropped.inc()
            return False
        red = self.red
        if red is not None:
            verdict = red.decision(depth_bytes, self.rng)
            if verdict == "mark":
                if red.ecn and packet.ecn_capable:
                    packet.ce = True
                    self.marked += 1
                    self._m_marked.inc()
                else:
                    self.dropped += 1
                    self._m_dropped.inc()
                    return False
        self.enqueued += 1
        self._m_enqueued.inc()
        return True

    def stats(self) -> PortStats:
        return PortStats(self.name, self.enqueued, self.link.delivered,
                         self.marked, self.dropped, self.peak_depth_bytes)


def flow_spine(packet: Packet, spines: int) -> int:
    """Stable ECMP: the five-tuple hash that pins a flow to one spine."""
    h = (packet.src_ip * 1_000_003 + packet.dst_ip * 8_191
         + packet.src_port * 131 + packet.dst_port * 31 + packet.proto)
    return h % spines


class LeafSpineFabric:
    """Two-tier fabric: one leaf per rack, ``spines`` spine switches.

    Ports (all unidirectional):

    * ``up[node]``     — node NIC into its rack's leaf (the node's egress
      link; TCP endpoints transmit straight into it),
    * ``down[node]``   — leaf toward the node (the incast bottleneck),
    * ``leaf_up[r,s]`` — leaf *r* toward spine *s*,
    * ``spine_down[s,r]`` — spine *s* toward leaf *r*.

    Intra-rack traffic turns around at the leaf; inter-rack traffic
    crosses the spine chosen by the flow hash.
    """

    def __init__(self, sim: Simulator, topo: TopologySpec,
                 rng: np.random.Generator):
        if not topo.fabric:
            raise ValueError("TopologySpec has no fabric to realize")
        self.sim = sim
        self.topo = topo
        red = None
        if topo.red_max_bytes > 0:
            red = RedConfig(topo.red_min_bytes, topo.red_max_bytes,
                            topo.red_max_p, ecn=topo.ecn)
        self.red = red

        def port(name: str, gbps: float) -> FabricPort:
            return FabricPort(sim, name, gbps, topo.hop_propagation_s,
                              topo.buffer_bytes, red, rng)

        self.up: Dict[int, FabricPort] = {}
        self.down: Dict[int, FabricPort] = {}
        self.leaf_up: Dict[Tuple[int, int], FabricPort] = {}
        self.spine_down: Dict[Tuple[int, int], FabricPort] = {}
        # destination address -> (its rack, the leaf port down to it)
        self._route: Dict[int, Tuple[int, FabricPort]] = {}

        for node in topo.node_ids():
            rack = topo.rack_of(node)
            self.up[node] = port(f"node{node}->leaf{rack}", topo.access_gbps)
            self.up[node].attach(partial(self._at_leaf, rack))
            self.down[node] = port(f"leaf{rack}->node{node}",
                                   topo.access_gbps)
            self._route[topo.address_of(node)] = (rack, self.down[node])
        for rack in range(topo.racks):
            for spine in range(topo.spines):
                up = port(f"leaf{rack}->spine{spine}", topo.uplink_gbps)
                up.attach(partial(self._at_spine, spine))
                self.leaf_up[(rack, spine)] = up
                down = port(f"spine{spine}->leaf{rack}", topo.uplink_gbps)
                down.attach(partial(self._at_leaf, rack))
                self.spine_down[(spine, rack)] = down

    # -- node-facing wiring ------------------------------------------------

    def egress_link(self, node_id: int) -> Link:
        """The link a node's TCP endpoint transmits into."""
        return self.up[node_id].link

    def attach_node(self, node_id: int,
                    receiver: Callable[[Packet], None]) -> None:
        self.down[node_id].attach(receiver)

    # -- hop-by-hop forwarding --------------------------------------------

    def _unroutable(self, packet: Packet) -> ValueError:
        return ValueError(
            f"packet for unknown fabric address {packet.dst_ip:#x}")

    def _at_leaf(self, rack: int, packet: Packet) -> None:
        route = self._route.get(packet.dst_ip)
        if route is None:
            raise self._unroutable(packet)
        dst_rack, down = route
        if dst_rack == rack:
            down.send(packet)
        else:
            spine = flow_spine(packet, self.topo.spines)
            self.leaf_up[(rack, spine)].send(packet)

    def _at_spine(self, spine: int, packet: Packet) -> None:
        route = self._route.get(packet.dst_ip)
        if route is None:
            raise self._unroutable(packet)
        self.spine_down[(spine, route[0])].send(packet)

    # -- fault-target protocol (rack/switch scope outages) -----------------

    # -- accounting --------------------------------------------------------

    def ports(self) -> List[FabricPort]:
        return (list(self.up.values()) + list(self.down.values())
                + list(self.leaf_up.values())
                + list(self.spine_down.values()))

    def port_stats(self) -> List[PortStats]:
        return [p.stats() for p in self.ports()]

    def totals(self) -> Dict[str, float]:
        stats = self.port_stats()
        return {
            "enqueued": sum(s.enqueued for s in stats),
            "delivered": sum(s.delivered for s in stats),
            "marked": sum(s.marked for s in stats),
            "dropped": sum(s.dropped for s in stats),
            "peak_depth_bytes": max(
                (s.peak_depth_bytes for s in stats), default=0.0),
        }
