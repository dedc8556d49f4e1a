"""The fleet JSQ balancer is bit-identical to its old per-packet loop.

``simulate_fleet`` picks the join-the-shortest-queue node once per
telemetry snapshot instead of once per packet (the choice can only change
when the snapshot does), and only nodes with outage windows walk a
pointer through them.  A frozen copy of the old loop is the oracle: every
``FleetOutcome`` field must match exactly with no outage and through the
cluster study's rack outage, at reaction delays of 0 and 100 us, and when
tied backlogs leave the choice to the node index.
"""

from typing import List, Optional

import numpy as np
import pytest

from repro.cluster.topology import TopologySpec
from repro.experiments.cluster import (
    OUTAGE_LOAD_FRACTION,
    OUTAGE_SPAN,
)
from repro.faults.domains import outage_windows, rack_outage
from repro.faults.schedule import FaultTimeline
from repro.offload.loadbalancer import (
    FleetOutcome,
    NodePathConfig,
    simulate_fleet,
)


def frozen_simulate_fleet(
    nodes: List[NodePathConfig],
    rate: float,
    n_packets: int,
    rng: np.random.Generator,
    reaction_delay_s: float = 0.0,
    deadline_s: Optional[float] = None,
) -> FleetOutcome:
    """``simulate_fleet`` as it was before the per-snapshot JSQ choice."""
    if not nodes:
        raise ValueError("fleet needs at least one node")
    n = len(nodes)
    gaps = rng.exponential(1.0 / rate, size=n_packets)
    arrivals = np.cumsum(gaps).tolist()

    effective = [node.effective_service_s for node in nodes]
    limits = [node.queue_limit_s for node in nodes]
    windows = [list(node.outages) for node in nodes]
    pointers = [0] * n
    backlogs = [0.0] * n
    observed = [0.0] * n
    last_snapshot = float("-inf")

    served_counts = [0] * n
    latencies: List[float] = []
    dropped = 0
    within = 0
    previous = 0.0

    for now in arrivals:
        elapsed = now - previous
        previous = now
        visible = observed  # refreshed below when the snapshot is due
        head_delays = [0.0] * n
        for k in range(n):
            wins = windows[k]
            p = pointers[k]
            while p < len(wins) and wins[p][1] <= now:
                p += 1
            pointers[k] = p
            in_outage = p < len(wins) and wins[p][0] <= now < wins[p][1]
            if in_outage:
                head_delays[k] = wins[p][1] - now
            else:
                backlogs[k] = max(0.0, backlogs[k] - elapsed)
        if now - last_snapshot >= reaction_delay_s:
            observed = [backlogs[k] + head_delays[k] for k in range(n)]
            last_snapshot = now
            visible = observed

        best = min(range(n), key=lambda k: (visible[k], k))
        actual = backlogs[best] + head_delays[best]
        if actual > limits[best]:
            dropped += 1
            continue
        backlogs[best] += effective[best]
        latency = backlogs[best] + head_delays[best]
        latencies.append(latency)
        served_counts[best] += 1
        if deadline_s is not None and latency <= deadline_s:
            within += 1

    values = np.asarray(latencies) if latencies else np.asarray([np.inf])
    return FleetOutcome(
        per_node_served=tuple(
            (node.name, served_counts[k]) for k, node in enumerate(nodes)),
        dropped=dropped,
        offered=n_packets,
        mean_latency_s=float(np.mean(values)),
        p99_latency_s=float(np.percentile(values, 99)),
        deadline_s=deadline_s,
        within_deadline=within,
    )


SERVICE_S = 20e-6
CORES = 8
N_PACKETS = 12_000


def _fleet(outage: bool, rate: float) -> List[NodePathConfig]:
    """Eight nodes in two racks; with ``outage``, rack 0 goes dark as in
    the cluster study's rack-outage scenario."""
    topo = TopologySpec()
    windows = {}
    if outage:
        run_s = N_PACKETS / rate
        start_s = OUTAGE_SPAN[0] * run_s
        duration_s = (OUTAGE_SPAN[1] - OUTAGE_SPAN[0]) * run_s
        specs = rack_outage(topo, 0, start_s=start_s, duration_s=duration_s)
        windows = outage_windows(FaultTimeline(specs, horizon_s=run_s))
    return [
        NodePathConfig(name=f"node:{node_id}", service_s=SERVICE_S,
                       cores=CORES,
                       outages=tuple(windows.get(f"node:{node_id}", ())))
        for node_id in topo.node_ids()
    ]


def assert_same_fleet(nodes, rate, n_packets, seed, **kwargs):
    got = simulate_fleet(nodes, rate, n_packets,
                         np.random.default_rng(seed), **kwargs)
    want = frozen_simulate_fleet(nodes, rate, n_packets,
                                 np.random.default_rng(seed), **kwargs)
    for name in FleetOutcome.__dataclass_fields__:
        assert getattr(got, name) == getattr(want, name), name
    return got


class TestFleetOracle:
    @pytest.mark.parametrize("reaction_delay", [0.0, 100e-6])
    @pytest.mark.parametrize("outage", [False, True])
    def test_matches_frozen_loop(self, outage, reaction_delay):
        rate = OUTAGE_LOAD_FRACTION * 8 * CORES / SERVICE_S
        nodes = _fleet(outage, rate)
        assert any(node.outages for node in nodes) == outage
        got = assert_same_fleet(nodes, rate, N_PACKETS, 11,
                                reaction_delay_s=reaction_delay,
                                deadline_s=1e-3)
        assert got.offered == N_PACKETS

    def test_overloaded_rack_outage_drops(self):
        # Cover drops too: past the surviving rack's capacity, queues
        # overflow while rack 0 is dark.
        rate = 1.5 * 4 * CORES / SERVICE_S
        nodes = _fleet(True, rate)
        got = assert_same_fleet(nodes, rate, N_PACKETS, 3,
                                reaction_delay_s=100e-6, deadline_s=1e-3)
        assert got.dropped > 0
        assert got.within_deadline <= got.offered - got.dropped

    def test_tied_backlogs_fall_to_the_lowest_index(self):
        # Far below capacity every node has drained by the next arrival:
        # all backlogs tie at 0.0 and the index breaks the tie.
        nodes = [NodePathConfig(name=f"n{k}", service_s=1e-6, cores=1)
                 for k in range(4)]
        for delay in (0.0, 50e-6):
            got = assert_same_fleet(nodes, 1e3, 2_000, 5,
                                    reaction_delay_s=delay)
            counts = [count for _, count in got.per_node_served]
            assert counts[0] > 0.99 * 2_000
            assert counts == sorted(counts, reverse=True)
