"""EXPERIMENTS.md generator: paper-vs-measured for every artifact.

Running :func:`generate_report` re-measures every table and figure and
emits a markdown report with the paper's anchors beside the reproduction's
numbers, flagging which anchors are calibrated inputs versus emergent
outputs.  ``python -m repro report`` writes it to EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from ..core.executor import ParallelExecutor
    from ..experiments.registry import ExperimentContext
from ..experiments.cluster import format_cluster
from ..experiments.faults import format_faults
from ..experiments.observations import format_verdicts
from .attribution import format_attribution_markdown
from .attribution import rows_from_fig4 as attribution_rows_from_fig4
from .tco import format_comparison


@dataclass
class AnchorRow:
    artifact: str
    quantity: str
    paper: str
    measured: str
    status: str  # "anchored" (calibrated input) | "emergent" | "deviation"


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


# Smoke-tier runs measure a subset of Fig. 4/5 keys; an anchor row whose
# key is missing renders this instead of crashing the report.
_NOT_MEASURED = "n/a (not measured at this tier)"


def collect_anchor_rows(
    fig4_rows, fig6_rows, fig5_curves, table4, table5
) -> List[AnchorRow]:
    by_key = {r.key: r for r in fig4_rows}
    eff = {r.key: r for r in fig6_rows}

    def tr(key):
        return by_key[key].throughput_ratio

    rows: List[AnchorRow] = []

    def row(artifact, quantity, paper, measured, status):
        # ``measured`` is lazy so a smoke run that skipped the keys a
        # row indexes degrades that row to "n/a" instead of crashing.
        try:
            value = measured()
        except (KeyError, ValueError, ZeroDivisionError):
            value = _NOT_MEASURED
        rows.append(AnchorRow(artifact, quantity, paper, value, status))

    row("Fig4", "throughput ratio range", "0.1x - 3.5x",
        lambda: f"{_fmt(min(r.throughput_ratio for r in fig4_rows))}x - "
                f"{_fmt(max(r.throughput_ratio for r in fig4_rows))}x",
        "emergent")
    row("Fig4", "p99 ratio range", "0.1x - 13.8x",
        lambda: f"{_fmt(min(r.p99_ratio for r in fig4_rows))}x - "
                f"{_fmt(max(r.p99_ratio for r in fig4_rows))}x",
        "emergent (narrower: our worst p99 case is milder)")
    row("Fig4/KO1", "UDP micro throughput", "76.5-85.7% lower",
        lambda: f"{(1-tr('udp:64'))*100:.1f}% / {(1-tr('udp:1024'))*100:.1f}% lower",
        "anchored (stack cycle costs calibrated)")
    row("Fig4/KO1", "UDP micro p99", "1.1-1.4x higher",
        lambda: f"{_fmt(by_key['udp:64'].p99_ratio)}x / "
                f"{_fmt(by_key['udp:1024'].p99_ratio)}x",
        "deviation (queueing model amplifies kernel-stack tails)")
    row("Fig4/KO1", "RDMA micro throughput", "up to 1.4x",
        lambda: f"{_fmt(tr('rdma:1024'))}x", "anchored")
    row("Fig4/KO1", "RDMA micro p99", "14.6-24.3% lower",
        lambda: f"{(1-by_key['rdma:1024'].p99_ratio)*100:.0f}% lower",
        "emergent (slightly smaller gap; knee-detection noise)")
    row("Fig4/KO1", "TCP/UDP functions", "20.6-89.5% lower",
        lambda: f"{(1-max(tr(k) for k in ('redis:a','bm25:1k','nat:10k','snort:file_image')))*100:.0f}%"
                f" - {(1-min(tr(k) for k in ('redis:a','redis:b','nat:10k','nat:1m')))*100:.0f}% lower",
        "emergent (narrower band: see notes)")
    row("Fig4/KO1", "MICA throughput", "19.5-54.5% lower",
        lambda: f"{(1-tr('mica:4'))*100:.0f}% / {(1-tr('mica:32'))*100:.0f}% lower",
        "anchored endpoints")
    row("Fig4/KO1", "fio throughput", "parity",
        lambda: f"{_fmt(tr('fio:read'))}x / {_fmt(tr('fio:write'))}x", "emergent")
    row("Fig4/KO2", "AES", "host 1.385x accel",
        lambda: f"host {_fmt(1/tr('crypto:aes'))}x", "anchored")
    row("Fig4/KO2", "RSA", "host 1.912x accel",
        lambda: f"host {_fmt(1/tr('crypto:rsa'))}x", "anchored")
    row("Fig4/KO2", "SHA-1", "accel 1.89x host",
        lambda: f"accel {_fmt(tr('crypto:sha1'))}x", "anchored")
    row("Fig4/KO4", "REM file_image", "accel 1.8x host",
        lambda: f"accel {_fmt(tr('rem:file_image'))}x",
        "emergent (rule-set density x calibrated scan costs)")
    row("Fig4/KO4", "REM flash/exe", "accel 0.6x host",
        lambda: f"{_fmt(tr('rem:file_flash'))}x / {_fmt(tr('rem:file_executable'))}x",
        "emergent")
    row("Fig4/KO2", "Compression", "accel up to 3.5x",
        lambda: f"{_fmt(tr('compression:app'))}x / {_fmt(tr('compression:txt'))}x",
        "anchored")

    exe_curves = {c.label: c for c in fig5_curves["file_executable"]}
    img_curves = {c.label: c for c in fig5_curves["file_image"]}
    row("Fig5/KO3", "accel max throughput", "~50 Gb/s cap",
        lambda: f"{_fmt(exe_curves['snic-accel'].max_achieved_gbps(), 1)} / "
                f"{_fmt(img_curves['snic-accel'].max_achieved_gbps(), 1)} Gb/s",
        "anchored (engine rate calibrated)")
    row("Fig5", "host exe 8-core max", "~78 Gb/s",
        lambda: f"{_fmt(exe_curves['host-8c'].max_achieved_gbps(), 1)} Gb/s",
        "emergent")
    row("Fig5/KO4", "host image p99 wall", "~40 Gb/s",
        lambda: f"{_fmt(img_curves['host-8c'].max_achieved_gbps(), 1)} Gb/s",
        "emergent")
    row("Fig5", "host p99 below knee", "~5.1 us",
        lambda: f"{min(p.p99_latency_s for p in exe_curves['host-8c'].points)*1e6:.1f} us",
        "emergent")
    row("Fig5", "accel p99 at capacity", "~25.1 us",
        lambda: f"{min(p.p99_latency_s for p in exe_curves['snic-accel'].points)*1e6:.1f} us",
        "emergent (batching latency)")

    row("Fig6/KO5", "efficiency ratio range", "0.2x - 3.8x",
        lambda: f"{_fmt(min(r.efficiency_ratio for r in fig6_rows))}x - "
                f"{_fmt(max(r.efficiency_ratio for r in fig6_rows))}x",
        "emergent (idle-power arithmetic)")
    row("Fig6", "fio efficiency", "1.1-1.3x",
        lambda: f"{_fmt(eff['fio:read'].efficiency_ratio)}x", "emergent")
    row("Fig6", "REM(image) efficiency", "~2.5x",
        lambda: f"{_fmt(eff['rem:file_image'].efficiency_ratio)}x", "emergent")
    row("Fig6", "SHA-1 efficiency", "~1.9x",
        lambda: f"{_fmt(eff['crypto:sha1'].efficiency_ratio)}x",
        "deviation (ours higher: host crypto power modeled at full burn)")
    row("Fig6", "Compression efficiency", "3.4-3.8x",
        lambda: f"{_fmt(eff['compression:txt'].efficiency_ratio)}x", "emergent")
    row("Fig6", "idle server / SNIC", "252 W / 29 W",
        lambda: "252 W / 29 W", "anchored")

    row("Table4", "throughput", "0.76 / 0.76 Gb/s",
        lambda: f"{_fmt(table4.host.throughput_gbps)} / "
                f"{_fmt(table4.snic.throughput_gbps)} Gb/s", "emergent")
    row("Table4", "p99", "5.07 / 17.43 us",
        lambda: f"{_fmt(table4.host.p99_latency_us)} / "
                f"{_fmt(table4.snic.p99_latency_us)} us",
        "emergent (shape: ~3-4x penalty)")
    row("Table4", "power", "278.3 / 254.5 W",
        lambda: f"{_fmt(table4.host.average_power_w, 1)} / "
                f"{_fmt(table4.snic.average_power_w, 1)} W",
        "emergent (spin + engaged-engine model)")

    by_app = table5.by_application()
    paper_savings = {"fio": "2.7%", "OVS": "1.7%", "REM": "-2.5%", "Compress": "70.7%"}
    for app, paper_value in paper_savings.items():
        row("Table5", f"{app} TCO savings", paper_value,
            lambda app=app: f"{by_app[app].savings_fraction:.1%}",
            "emergent (prices anchored; power measured)")
    return rows


def render_faults_section(faults_text: str) -> List[str]:
    """The availability-under-faults block appended to the report."""
    return [
        "",
        "## Availability under faults (extension)",
        "",
        "Fig. 4 operating points of four representative functions replayed",
        "through fault scenarios (`python -m repro faults`): SNIC-path",
        "outage with threshold-policy failover to the host, thermal",
        "throttling, SNIC core loss, and bursty link loss healed by",
        "timeout/retry with exponential backoff.  `avail` counts requests",
        "served within the per-function SLO deadline; `late-drop` counts",
        "drops outside the fault window (+grace) — zero means degradation",
        "stayed contained; `recover ms` is fault end until traffic returns",
        "to the SNIC path.",
        "",
        "```",
        faults_text,
        "```",
    ]


def render_cluster_section(cluster_text: str) -> List[str]:
    """The cluster-scale block appended to the report."""
    return [
        "",
        "## Cluster scale (extension)",
        "",
        "Racks of calibrated server+SNIC nodes behind a two-tier",
        "leaf-spine fabric (`python -m repro cluster`, DESIGN.md §15).",
        "Each scenario drives a traffic mix — many-to-one incast,",
        "uniform random, or skewed — as TCP flows through per-port",
        "bounded switch queues with RED/ECN marking; the same congestion",
        "machinery that serves single-node runs reacts to the marks.",
        "Drop-tail incast is the control: identical buffers, recovery by",
        "RTO only.  `fleet placement` sizes node counts per profile to a",
        "cluster-level throughput+SLO target and prices them ($/krps);",
        "`rack-outage failover` darkens one rack mid-run (a correlated",
        "fault domain) and measures availability at the deadline while",
        "the load balancer re-routes.",
        "",
        "```",
        cluster_text,
        "```",
    ]


def render_profile_section(profiles: Sequence, top_n: int = 10) -> List[str]:
    """The slowest-work-units block (supervised runs only).

    ``profiles`` is a sequence of ``UnitProfile``-shaped objects (unit,
    wall_s, cpu_s, events_per_s) — duck-typed so the report layer does
    not import the executor.
    """
    ranked = sorted(profiles, key=lambda p: (-p.wall_s, p.unit))[:top_n]
    lines = [
        "",
        "## Slowest work units (this run)",
        "",
        "Per-unit wall/CPU/event-rate profiles recorded by the run-farm",
        "supervisor (DESIGN.md §12); also journaled to the manifest and",
        "shown live by `repro status`.",
        "",
        "| unit | wall s | cpu s | kernel events/s |",
        "|---|---|---|---|",
    ]
    for profile in ranked:
        cpu = (f"{profile.cpu_s:.2f}" if profile.cpu_s is not None else "-")
        eps = (f"{profile.events_per_s:,.0f}"
               if profile.events_per_s is not None else "-")
        lines.append(f"| {profile.unit} | {profile.wall_s:.2f} | {cpu} | "
                     f"{eps} |")
    return lines


def render_report(anchor_rows: Sequence[AnchorRow], verdict_text: str,
                  table5_text: str, fig7_stats: Dict[str, float],
                  faults_text: Optional[str] = None,
                  attribution_text: Optional[str] = None,
                  cluster_text: Optional[str] = None,
                  profiles: Optional[Sequence] = None) -> str:
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerate this file with `python -m repro report` (seconds under",
        "the default hybrid engine).  Status legend: **anchored** = the",
        "quantity was used to calibrate the model (agreement is expected,",
        "not evidence); **emergent** = the quantity falls out of the",
        "queueing/power/price models; **deviation** = a known, documented",
        "mismatch.",
        "",
        "The CLI footer's `probes: N simulated, M analytic, K saved` splits",
        "the rate probes by how they were answered: simulated through the",
        "queueing kernels, served by the validated analytic fast path",
        "(DESIGN.md §14), or avoided outright by a warm-started sweep",
        "(DESIGN.md §9).  Analytic answers are only reported inside a",
        "simulation-validated trust region, far from the knee; every",
        "verdict-deciding quantity below is simulation-backed, and",
        "`--engine sim` simulates every probe, keeping each measured",
        "number byte-identical to the pre-hybrid output.",
        "",
        "**Partial results never produce a verdict.**  Under run-farm",
        "supervision (DESIGN.md §11) a consistently failing work unit can be",
        "quarantined; experiments that declare partial-results degradation",
        "then exit with code 3 and a `PARTIAL RESULTS` notice instead of a",
        "table, and any `--json` artifact is marked `\"partial\": true` with",
        "`\"result\": null`.  No row of this file, no Key Observation, and no",
        "offload verdict is ever derived from a partial run — the quantities",
        "here come only from runs where every unit completed.  Resume the run",
        "(`--resume <run-dir>`) to finish the quarantined units; because units",
        "are pure, the completed rerun is byte-identical to an uninterrupted",
        "one.",
        "",
        "**SLO-drift warnings never change a verdict.**  The telemetry layer",
        "(DESIGN.md §12) compares each run's headline quantities against the",
        "anchor bands recorded in this file and the per-platform p99 SLO",
        "ceilings; drift emits a structured `repro.slo` warning and an",
        "informational `slo` block in any `--json` artifact.  These are",
        "operator signals only — no exit code, Key Observation, or offload",
        "verdict is derived from them.",
        "",
        "| artifact | quantity | paper | measured | status |",
        "|---|---|---|---|---|",
    ]
    for row in anchor_rows:
        lines.append(
            f"| {row.artifact} | {row.quantity} | {row.paper} | "
            f"{row.measured} | {row.status} |"
        )
    lines += [
        "",
        "## Key Observations",
        "",
        "```",
        verdict_text,
        "```",
        "",
        "## Table 5 (measured)",
        "",
        "```",
        table5_text,
        "```",
        "",
        "## Fig. 7 trace",
        "",
        f"- average {fig7_stats['average_gbps']:.2f} Gb/s, "
        f"p50 {fig7_stats['p50_gbps']:.2f}, p99 {fig7_stats['p99_gbps']:.2f}, "
        f"peak {fig7_stats['peak_gbps']:.2f} Gb/s over "
        f"{fig7_stats['duration_s']:.0f} s",
    ]
    if attribution_text is not None:
        lines += [
            "",
            "## Latency attribution (extension)",
            "",
            "Each operating point's mean and p99-tail sojourn split into",
            "queueing wait, service, batch-formation wait, the stack-RTT",
            "floor, and retry/fault stall.  Components are accumulated",
            "per request inside the queueing fast paths, so the mean",
            "columns sum to the reported mean sojourn exactly (`check`).",
            "Tail columns are means over requests at or above the window",
            "p99: CPU platforms' tails are queueing-dominated, the",
            "accelerator's by batch formation plus the batch service span.",
            "",
            attribution_text,
        ]
    if faults_text is not None:
        lines += render_faults_section(faults_text)
    if cluster_text is not None:
        lines += render_cluster_section(cluster_text)
    if profiles:
        lines += render_profile_section(profiles)
    lines += [
        "",
        "## Known deviations and their causes",
        "",
        "1. **Kernel-stack p99 ratios (UDP micro, Redis, NAT, BM25).** The",
        "   paper reports 1.1-1.4x (micro) and up to 3.2x (functions); we",
        "   measure ~1.8-3.2x across the board.  Our loss-bounded FCFS",
        "   queues tie tail latency to service time more strongly than the",
        "   real systems, where NAPI batching and client-side effects",
        "   flatten the gap.  Direction and ordering are preserved.",
        "2. **SHA-1 energy efficiency.** Paper ~1.9x, ours ~2.5x: our host",
        "   crypto run is modeled at full 8-core burn (~110 W active); the",
        "   paper's host SHA-1 run apparently drew far less.  All other",
        "   efficiency anchors land in band.",
        "3. **TCP/UDP function throughput band.** Paper 20.6-89.5% lower;",
        "   ours spans ~54-87% lower.  The paper's 20.6% case is not",
        "   identified per-function; our most SNIC-friendly kernel-stack",
        "   function (BM25 1k docs) lands at ~54% lower.",
        "",
        "## Substitutions (hardware -> simulation)",
        "",
        "See DESIGN.md §1 for the full substitution table and rationale.",
        "",
    ]
    return "\n".join(lines)


def generate_report(
    samples: int = 200,
    n_requests: int = 12_000,
    streams: Optional[RandomStreams] = None,
    jobs: int = 1,
    executor: Optional["ParallelExecutor"] = None,
    ctx: Optional["ExperimentContext"] = None,
) -> str:
    """Walk the experiment registry and render the markdown report.

    One :class:`ExperimentContext` memoizes every artifact for the whole
    walk: fig4's rows feed fig6, the observations, and the attribution
    section without re-measuring; table4 feeds table5; the fault study
    reuses fig4's operating points through the content-addressed cache.
    Every artifact — including fig5, which used to run at a private
    hard-coded fidelity — resolves its spec's default tier against the
    same invocation-wide ``samples``/``n_requests``, so each (function,
    platform, fidelity) operating point is simulated at most once per
    report.  ``jobs`` parallelizes the independent measurements in each
    artifact; passing a shared ``executor`` instead runs every phase on
    it (one supervisor, one runtime estimate for the serial bypass).
    """
    from ..experiments.registry import ExperimentContext

    if ctx is None:
        from ..core.executor import ParallelExecutor

        ctx = ExperimentContext(
            streams=streams or RandomStreams(2023),
            executor=executor or ParallelExecutor(jobs),
            samples=samples,
            requests=n_requests,
        )
    fig4_rows = ctx.run("fig4")
    fig5_curves = ctx.run("fig5")
    fig6_rows = ctx.run("fig6")
    table4 = ctx.run("table4")
    table5 = ctx.run("table5")
    fig7 = ctx.run("fig7")
    faults = ctx.run("faults")
    cluster = ctx.run("cluster")
    verdicts = ctx.run("observations")

    # The fault study degrades to a partial-results verdict when the
    # run-farm supervisor quarantined some of its scenario units: the
    # report still renders, with the degradation notice in place of the
    # availability table.
    from ..experiments.registry import PartialResult

    faults_text = (faults.notice() if isinstance(faults, PartialResult)
                   else format_faults(faults))
    cluster_text = (cluster.notice() if isinstance(cluster, PartialResult)
                    else format_cluster(cluster))

    anchor_rows = collect_anchor_rows(fig4_rows, fig6_rows, fig5_curves,
                                      table4, table5)
    # Supervised runs expose per-unit profiles; a plain executor has no
    # `unit_profiles` attribute and the section is simply omitted (so the
    # checked-in EXPERIMENTS.md, generated unsupervised, is unchanged).
    profiles = list(getattr(ctx.executor, "unit_profiles", None) or ())
    return render_report(
        anchor_rows,
        format_verdicts(verdicts),
        format_comparison(table5.comparisons),
        fig7.stats,
        faults_text=faults_text,
        attribution_text=format_attribution_markdown(
            attribution_rows_from_fig4(fig4_rows)),
        cluster_text=cluster_text,
        profiles=profiles,
    )
