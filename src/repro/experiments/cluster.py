"""Cluster-scale study: racks of server+SNIC nodes behind a leaf-spine
fabric (DESIGN.md §15).

The paper measures one server and one SNIC; this experiment asks what
the same calibrated components do *in aggregate*: incast onto one
node's access link (the classic partition/aggregate pattern), uniform
and skewed all-to-all traffic, ECN marking versus drop-tail under the
same buffers, fleet sizing/TCO across the three node profiles, and
JSQ failover through a correlated whole-rack outage.

Every flow scenario is an independent work unit (a pure function of
``(topology, mix, flow size, seed)``), so ``--jobs N`` fans them across
processes with output — including the ``fabric.*`` metric counters —
identical to the serial run.

The ``single`` fidelity tier is the reduction contract: a one-node,
fabric-less "cluster" delegates straight to the registered fig4/fig5
runners, producing byte-identical single-node artifacts (no fabric code
on that path at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import TopologySpec, run_scenario, single_node_spec
from ..cluster.scenario import ScenarioResult
from ..core.executor import ParallelExecutor, WorkUnit
from ..core.rng import RandomStreams
from ..faults import FaultTimeline, outage_windows, rack_outage, rack_targets
from ..offload.loadbalancer import FleetOutcome, NodePathConfig, simulate_fleet
from .measurement import cpu_service_seconds
from .profiles import get_profile
from .registry import (
    DEFAULT_TIER,
    SMOKE_TIER,
    DEGRADE_PARTIAL,
    Experiment,
    ExperimentContext,
    Fidelity,
    register,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..offload.advisor import FleetPlacement

# (label, mix kind, ecn) — the sweep axis.  Drop-tail incast is the
# control: same buffers, no marking, recovery by RTO only.
SCENARIO_TABLE: Tuple[Tuple[str, str, bool], ...] = (
    ("incast-ecn", "incast", True),
    ("incast-droptail", "incast", False),
    ("uniform-ecn", "uniform", True),
    ("skewed-ecn", "skewed", True),
)
DEFAULT_SCENARIOS = tuple(label for label, _, _ in SCENARIO_TABLE)
SMOKE_SCENARIOS = ("incast-ecn", "incast-droptail")

DEFAULT_FLOW_BYTES = 262_144
SMOKE_FLOW_BYTES = 65_536

# Fleet sizing operating point: a hot kernel-stack KV function and an
# accelerator-friendly one, so both sides of the TCO story show up.
FLEET_PROFILE_KEYS = ("redis:a", "rem:file_image")
FLEET_REQUIRED_RPS = 1_000_000.0
FLEET_SLO_P99_S = 1e-3
NODE_PROFILE_ORDER = ("host+bf2", "host-only", "all-snic")

# Rack-outage failover study: offered load as a fraction of fleet
# capacity (losing half the fleet makes the survivors transiently
# overloaded), telemetry staleness, and the outage's share of the run.
OUTAGE_LOAD_FRACTION = 0.6
OUTAGE_REACTION_S = 100e-6
OUTAGE_SPAN = (0.4, 0.6)  # fraction of the run the rack is dark


@dataclass(frozen=True)
class RackOutageStudy:
    """JSQ failover through a correlated whole-rack power event."""

    nodes: int
    rack_nodes: int  # how many the outage takes down together
    rate_rps: float
    outage_start_s: float
    outage_end_s: float
    outcome: FleetOutcome


@dataclass(frozen=True)
class ClusterStudy:
    topology_id: str
    racks: int
    nodes_per_rack: int
    spines: int
    n_nodes: int
    node_profile: str
    flow_bytes: int
    scenarios: Tuple[Tuple[str, ScenarioResult], ...]
    fleet: Tuple[FleetPlacement, ...]
    outage: Optional[RackOutageStudy]


@dataclass(frozen=True)
class SingleNodeReduction:
    """The N=1, fabric-less tier: the seed repo's own artifacts.

    Carries the registered fig4/fig5 results verbatim — formatted output
    and JSON rows are byte-identical to ``python -m repro fig4``/``fig5``
    at the same fidelity, which is the reduction guarantee the cluster
    layer is held to (tests/cluster/test_single_node_reduction.py).
    """

    topology_id: str
    fig4_rows: Any
    fig5_curves: Any


def _scenario_unit(label: str, kind: str, ecn: bool, racks: int,
                   nodes_per_rack: int, spines: int, node_profile: str,
                   flow_bytes: int, flows_per_node: int,
                   seed: int) -> ScenarioResult:
    """Picklable work unit: one (mix, AQM) cell.

    Rebuilds the topology and draws from the ``cluster:{label}``
    substream re-created from ``seed`` — a pure function of its
    arguments, so results are schedule- and process-independent.
    """
    topo = TopologySpec(racks=racks, nodes_per_rack=nodes_per_rack,
                        spines=spines, node_profile=node_profile, ecn=ecn)
    rng = RandomStreams(seed).fresh(f"cluster:{label}")
    return run_scenario(topo, kind, flow_bytes, rng,
                        flows_per_node=flows_per_node)


def run_rack_outage(topo: TopologySpec, samples: int, n_packets: int,
                    streams: RandomStreams) -> RackOutageStudy:
    """Drive the fleet JSQ balancer through a correlated rack outage.

    The outage comes from the faults layer — a :func:`rack_outage`
    family materialized into a timeline, flattened back to per-node
    windows by :func:`outage_windows` — so the same schedule machinery
    the availability study uses scales to rack scope.
    """
    profile = get_profile(FLEET_PROFILE_KEYS[0], samples=samples)
    service_s = float(np.mean(cpu_service_seconds(profile, "host")))
    from ..calibration import NODE_PROFILES

    cores = NODE_PROFILES[topo.node_profile].serve_cores
    capacity = topo.n_nodes * cores / service_s
    rate = OUTAGE_LOAD_FRACTION * capacity
    run_s = n_packets / rate
    start_s = OUTAGE_SPAN[0] * run_s
    duration_s = (OUTAGE_SPAN[1] - OUTAGE_SPAN[0]) * run_s
    specs = rack_outage(topo, 0, start_s=start_s, duration_s=duration_s)
    windows = outage_windows(FaultTimeline(specs, horizon_s=run_s))
    nodes = [
        NodePathConfig(
            name=f"node:{node_id}",
            service_s=service_s,
            cores=cores,
            outages=tuple(windows.get(f"node:{node_id}", ())),
        )
        for node_id in topo.node_ids()
    ]
    outcome = simulate_fleet(
        nodes, rate, n_packets, streams.fresh("cluster:rack-outage"),
        reaction_delay_s=OUTAGE_REACTION_S, deadline_s=FLEET_SLO_P99_S,
    )
    return RackOutageStudy(
        nodes=topo.n_nodes,
        rack_nodes=len(rack_targets(topo, 0)),
        rate_rps=rate,
        outage_start_s=start_s,
        outage_end_s=start_s + duration_s,
        outcome=outcome,
    )


def run_cluster_study(
    racks: int = 2,
    nodes_per_rack: int = 4,
    spines: int = 2,
    node_profile: str = "host+bf2",
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    flow_bytes: int = DEFAULT_FLOW_BYTES,
    flows_per_node: int = 1,
    samples: int = 200,
    n_packets: int = 12_000,
    streams: Optional[RandomStreams] = None,
    executor: Optional[ParallelExecutor] = None,
) -> ClusterStudy:
    """The full sweep: flow scenarios, fleet TCO, rack-outage failover."""
    streams = streams or RandomStreams(2023)
    executor = executor or ParallelExecutor(1)
    seed = streams.root_seed
    by_label = {label: (kind, ecn) for label, kind, ecn in SCENARIO_TABLE}
    unknown = [label for label in scenarios if label not in by_label]
    if unknown:
        raise ValueError(f"unknown cluster scenarios {unknown} "
                         f"(known: {sorted(by_label)})")
    units = [
        WorkUnit(
            name=f"cluster:{label}",
            fn=_scenario_unit,
            args=(label, *by_label[label], racks, nodes_per_rack, spines,
                  node_profile, flow_bytes, flows_per_node, seed),
        )
        for label in scenarios
    ]
    results = executor.map(units)
    topo = TopologySpec(racks=racks, nodes_per_rack=nodes_per_rack,
                        spines=spines, node_profile=node_profile)
    # Imported here: offload.advisor imports the measurement layer, so a
    # module-level import is a cycle whenever repro.offload loads first.
    from ..offload.advisor import recommend_fleet

    fleet = tuple(
        recommend_fleet(get_profile(key, samples=samples),
                        FLEET_REQUIRED_RPS, slo_p99=FLEET_SLO_P99_S,
                        node_profiles=NODE_PROFILE_ORDER)
        for key in FLEET_PROFILE_KEYS
    )
    outage = run_rack_outage(topo, samples, n_packets, streams)
    return ClusterStudy(
        topology_id=topo.topology_id(),
        racks=racks,
        nodes_per_rack=nodes_per_rack,
        spines=spines,
        n_nodes=topo.n_nodes,
        node_profile=node_profile,
        flow_bytes=flow_bytes,
        scenarios=tuple(zip(scenarios, results)),
        fleet=fleet,
        outage=outage,
    )


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def format_cluster(study) -> str:
    if isinstance(study, SingleNodeReduction):
        return _format_reduction(study)
    lines = [
        f"topology {study.topology_id}: {study.racks} racks x "
        f"{study.nodes_per_rack} nodes, {study.spines} spines, "
        f"{study.node_profile} nodes, "
        f"{study.flow_bytes // 1024} KiB flows",
        "",
        f"{'scenario':<16} {'flows':>5} {'done':>4} {'p99 FCT ms':>10} "
        f"{'mean ms':>8} {'Gb/s':>6} {'marks':>6} {'backoff':>7} "
        f"{'drops':>6} {'retx':>5} {'peak KB':>8}",
    ]
    for label, result in study.scenarios:
        lines.append(
            f"{label:<16} {result.flows:>5} {result.completed:>4} "
            f"{result.fct_p99_s * 1e3:>10.3f} "
            f"{result.fct_mean_s * 1e3:>8.3f} "
            f"{result.goodput_gbps:>6.1f} {result.ecn_marks_seen:>6} "
            f"{result.ecn_responses:>7} {result.fabric_dropped:>6} "
            f"{result.retransmissions:>5} "
            f"{result.peak_depth_bytes / 1024:>8.1f}"
        )
    hot = dict(study.scenarios).get("incast-ecn")
    if hot is not None and hot.hot_ports:
        lines.append("")
        lines.append("hottest fabric ports (incast-ecn):")
        for stats in hot.hot_ports:
            lines.append(
                f"  {stats.name:<20} peak {stats.peak_depth_bytes/1024:>7.1f}"
                f" KB  enq {stats.enqueued:>5}  marked {stats.marked:>4}  "
                f"dropped {stats.dropped:>3}"
            )
    lines.append("")
    lines.append(
        f"fleet placement @ {FLEET_REQUIRED_RPS:,.0f} rps, "
        f"SLO p99 <= {FLEET_SLO_P99_S * 1e3:.1f} ms:"
    )
    lines.append(
        f"{'function':<16} {'node profile':<12} {'platform':<10} "
        f"{'nodes':>5} {'capex $':>10} {'energy $':>10} {'$/krps':>8} "
        f"{'SLO':>4} {'pick':>5}"
    )
    for placement in study.fleet:
        for key in NODE_PROFILE_ORDER:
            if key not in placement.options:
                continue
            option = placement.options[key]
            lines.append(
                f"{placement.profile_key:<16} {key:<12} "
                f"{option.platform:<10} {option.nodes:>5} "
                f"{option.capex_usd:>10,.0f} {option.energy_usd:>10,.0f} "
                f"{option.usd_per_krps:>8.1f} "
                f"{'ok' if option.meets_slo else 'miss':>4} "
                f"{'<--' if key == placement.chosen else '':>5}"
            )
    if study.outage is not None:
        o = study.outage
        lines += [
            "",
            f"rack-outage failover: JSQ over {o.nodes} nodes at "
            f"{o.rate_rps:,.0f} rps "
            f"({OUTAGE_LOAD_FRACTION:.0%} of fleet capacity), rack 0 "
            f"({o.rack_nodes} nodes) dark "
            f"t=[{o.outage_start_s * 1e3:.1f}, "
            f"{o.outage_end_s * 1e3:.1f}) ms:",
            f"  availability {o.outcome.availability:.2%} (deadline "
            f"{FLEET_SLO_P99_S * 1e3:.1f} ms), dropped "
            f"{o.outcome.dropped}/{o.outcome.offered}, p99 "
            f"{o.outcome.p99_latency_s * 1e6:.1f} us",
        ]
    return "\n".join(lines)


def _format_reduction(study: SingleNodeReduction) -> str:
    from .fig4 import format_fig4
    from .fig5 import format_fig5

    return "\n".join([
        f"topology {study.topology_id}: single node, no fabric — "
        "delegating to the single-node artifacts",
        "",
        format_fig4(study.fig4_rows),
        "",
        format_fig5(study.fig5_curves),
    ])


# ---------------------------------------------------------------------------
# JSON artifact
# ---------------------------------------------------------------------------


def _scenario_json(label: str, result: ScenarioResult) -> Dict[str, Any]:
    return {
        "label": label,
        "kind": result.kind,
        "ecn": result.ecn,
        "flows": result.flows,
        "completed": result.completed,
        "fct_mean_s": result.fct_mean_s,
        "fct_p99_s": result.fct_p99_s,
        "fct_max_s": result.fct_max_s,
        "goodput_gbps": result.goodput_gbps,
        "makespan_s": result.makespan_s,
        "retransmissions": result.retransmissions,
        "ecn_marks_seen": result.ecn_marks_seen,
        "ecn_responses": result.ecn_responses,
        "fabric_enqueued": result.fabric_enqueued,
        "fabric_marked": result.fabric_marked,
        "fabric_dropped": result.fabric_dropped,
        "peak_depth_bytes": result.peak_depth_bytes,
        "hot_ports": [
            {"name": s.name, "peak_depth_bytes": s.peak_depth_bytes,
             "enqueued": s.enqueued, "marked": s.marked,
             "dropped": s.dropped}
            for s in result.hot_ports
        ],
    }


def cluster_json(study) -> Dict[str, Any]:
    if isinstance(study, SingleNodeReduction):
        from .fig4 import fig4_row_json

        return {
            "topology_id": study.topology_id,
            "n_nodes": 1,
            "scenarios": [],
            "single_node_fig4": [fig4_row_json(r) for r in study.fig4_rows],
        }
    doc: Dict[str, Any] = {
        "topology_id": study.topology_id,
        "n_nodes": study.n_nodes,
        "node_profile": study.node_profile,
        "flow_bytes": study.flow_bytes,
        "scenarios": [_scenario_json(label, result)
                      for label, result in study.scenarios],
        "fleet": [
            {
                "function": placement.profile_key,
                "required_rps": placement.required_rps,
                "chosen": placement.chosen,
                "options": {
                    key: {
                        "platform": option.platform,
                        "nodes": option.nodes,
                        "capex_usd": option.capex_usd,
                        "energy_usd": option.energy_usd,
                        "tco_usd": option.tco_usd,
                        "usd_per_krps": option.usd_per_krps,
                        "meets_slo": option.meets_slo,
                    }
                    for key, option in placement.options.items()
                },
            }
            for placement in study.fleet
        ],
    }
    if study.outage is not None:
        o = study.outage
        doc["rack_outage"] = {
            "nodes": o.nodes,
            "rack_nodes": o.rack_nodes,
            "rate_rps": o.rate_rps,
            "outage_start_s": o.outage_start_s,
            "outage_end_s": o.outage_end_s,
            "availability": o.outcome.availability,
            "dropped": o.outcome.dropped,
            "offered": o.outcome.offered,
            "p99_latency_s": o.outcome.p99_latency_s,
        }
    return doc


CLUSTER_SCHEMA = {
    "type": "object",
    "required": ["topology_id", "n_nodes", "scenarios"],
    "properties": {
        "topology_id": {"type": "string"},
        "n_nodes": {"type": "number"},
        "scenarios": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "kind", "ecn", "flows", "completed",
                             "fct_p99_s", "goodput_gbps", "fabric_marked",
                             "fabric_dropped"],
            },
        },
    },
}


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


def _single_tier() -> Fidelity:
    """The ``single`` tier: N=1 reduction at fig4/fig5 smoke fidelity."""
    from .fig4 import FIG4_SMOKE_KEYS
    from .fig5 import SMOKE_RATES_GBPS

    return Fidelity(samples=40, requests=2_500, keys=FIG4_SMOKE_KEYS,
                    rates_gbps=tuple(SMOKE_RATES_GBPS),
                    params={"single_node": True})


def tier_topology_id(tier: str) -> str:
    """The topology a ``cluster`` run at ``tier`` will realize.

    Run-farm manifest headers record this id so ``--resume`` can reject
    a manifest written under a different cluster shape (resuming a 2x4
    incast study into a single-node reduction would silently mix
    incompatible artifacts).
    """
    from .registry import get

    params = get("cluster").tiers[tier].params
    if params.get("single_node"):
        return single_node_spec(
            params.get("node_profile", "host+bf2")).topology_id()
    return TopologySpec(
        racks=params.get("racks", 2),
        nodes_per_rack=params.get("nodes_per_rack", 4),
        spines=params.get("spines", 2),
        node_profile=params.get("node_profile", "host+bf2"),
    ).topology_id()


def _cluster_runner(ctx: ExperimentContext):
    fid = ctx.fidelity()
    params = fid.params
    if params.get("single_node"):
        # The N=1, fabric-less reduction: call the single-node runners
        # exactly as their own specs would — same fidelity knobs, same
        # streams/executor — so the artifacts are byte-identical to the
        # direct fig4/fig5 verbs.  No cluster machinery on this path.
        from .fig4 import run_fig4
        from .fig5 import run_fig5

        common = dict(samples=fid.samples, n_requests=fid.requests,
                      streams=ctx.streams, executor=ctx.executor,
                      engine=fid.engine)
        fig4_kwargs = dict(common)
        if fid.keys is not None:
            fig4_kwargs["keys"] = fid.keys
        fig5_kwargs = dict(common)
        if fid.rates_gbps is not None:
            fig5_kwargs["rates_gbps"] = fid.rates_gbps
        return SingleNodeReduction(
            topology_id=single_node_spec(
                params.get("node_profile", "host+bf2")).topology_id(),
            fig4_rows=run_fig4(**fig4_kwargs),
            fig5_curves=run_fig5(**fig5_kwargs),
        )
    return run_cluster_study(
        racks=params.get("racks", 2),
        nodes_per_rack=params.get("nodes_per_rack", 4),
        spines=params.get("spines", 2),
        node_profile=params.get("node_profile", "host+bf2"),
        scenarios=params.get("scenarios", DEFAULT_SCENARIOS),
        flow_bytes=params.get("flow_bytes", DEFAULT_FLOW_BYTES),
        flows_per_node=params.get("flows_per_node", 1),
        samples=fid.samples,
        n_packets=fid.requests,
        streams=ctx.streams,
        executor=ctx.executor,
    )


register(Experiment(
    name="cluster",
    title="Cluster: leaf-spine fabric, ECN vs drop-tail, fleet TCO",
    description="racks of calibrated server+SNIC nodes behind a two-tier "
                "fabric: incast/uniform/skewed flow scenarios, fleet "
                "sizing across node profiles, rack-outage failover",
    runner=_cluster_runner,
    formatter=format_cluster,
    to_json=cluster_json,
    schema=CLUSTER_SCHEMA,
    tiers={
        DEFAULT_TIER: Fidelity(),
        SMOKE_TIER: Fidelity(
            samples=40, requests=2_500,
            params={"flow_bytes": SMOKE_FLOW_BYTES,
                    "scenarios": SMOKE_SCENARIOS},
        ),
        # The N=1 reduction contract (no fabric, no cluster code paths):
        # exercised by tests/cluster/, not by the CLI smoke matrix.  Its
        # caps/keys/rates mirror fig4/fig5's smoke tiers exactly, so the
        # reduction has a byte-identical direct counterpart to test
        # against without a full-fidelity measurement.
        "single": _single_tier(),
    },
    unit_granularity="one (traffic mix, AQM) cluster scenario",
    degradation=DEGRADE_PARTIAL,
))
