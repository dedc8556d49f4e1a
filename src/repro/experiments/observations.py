"""The paper's five Key Observations as machine-checkable claims.

Each observation is evaluated against measured Fig. 4/5/6 results and
returns a verdict with the supporting numbers, so the reproduction can
assert — not merely narrate — that the paper's conclusions hold in this
build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .fig4 import Fig4Row, rows_by_key
from .fig5 import Fig5Series
from .fig6 import Fig6Row
from .registry import Experiment, ExperimentContext, register, smoke_tier

TCP_UDP_KEYS = (
    "redis:a", "redis:b", "redis:c",
    "snort:file_image", "snort:file_flash", "snort:file_executable",
    "nat:10k", "nat:1m", "bm25:100", "bm25:1k",
)
RDMA_SIMPLE_KEYS = ("fio:read", "fio:write")
ACCEL_KEYS = (
    "crypto:aes", "crypto:rsa", "crypto:sha1",
    "rem:file_image", "rem:file_flash", "rem:file_executable",
    "compression:app", "compression:txt",
)


@dataclass
class Verdict:
    observation: str
    holds: bool
    evidence: Dict[str, float] = field(default_factory=dict)
    summary: str = ""


def observation_1(rows: Sequence[Fig4Row]) -> Verdict:
    """O1: the SNIC CPU loses to the host on TCP/UDP functions (lower
    throughput, higher p99), but matches it on simple RDMA functions."""
    by_key = rows_by_key(list(rows))
    tcp_udp = [by_key[k] for k in TCP_UDP_KEYS if k in by_key]
    rdma = [by_key[k] for k in RDMA_SIMPLE_KEYS if k in by_key]
    tcp_udp_lose = all(
        r.throughput_ratio < 0.85 and r.p99_ratio > 1.0 for r in tcp_udp
    )
    rdma_match = all(0.9 <= r.throughput_ratio <= 1.15 for r in rdma)
    evidence = {
        "tcp_udp_throughput_ratio_max": max(r.throughput_ratio for r in tcp_udp),
        "tcp_udp_p99_ratio_min": min(r.p99_ratio for r in tcp_udp),
        "fio_throughput_ratio_min": min(r.throughput_ratio for r in rdma),
    }
    return Verdict(
        "O1",
        tcp_udp_lose and rdma_match,
        evidence,
        "SNIC CPU loses on kernel-stack functions; matches host on fio",
    )


def observation_2(rows: Sequence[Fig4Row]) -> Verdict:
    """O2: accelerators don't always win — the host's ISA extensions win
    AES and RSA while the engines win SHA-1, REM(image), compression."""
    by_key = rows_by_key(list(rows))
    host_wins = [by_key["crypto:aes"], by_key["crypto:rsa"],
                 by_key["rem:file_flash"], by_key["rem:file_executable"]]
    accel_wins = [by_key["crypto:sha1"], by_key["rem:file_image"],
                  by_key["compression:app"], by_key["compression:txt"]]
    holds = all(r.throughput_ratio < 1.0 for r in host_wins) and all(
        r.throughput_ratio > 1.0 for r in accel_wins
    )
    return Verdict(
        "O2",
        holds,
        {r.key: r.throughput_ratio for r in host_wins + accel_wins},
        "host ISA extensions win AES/RSA; engines win SHA-1/REM(img)/compress",
    )


def observation_3(fig5: Dict[str, List[Fig5Series]], line_rate_gbps: float = 100.0) -> Verdict:
    """O3: the accelerator never reaches line rate (caps near 50 Gbps)."""
    accel_maxima = {}
    for ruleset, curves in fig5.items():
        for series in curves:
            if series.platform == "snic-accel":
                accel_maxima[ruleset] = series.max_achieved_gbps()
    holds = all(35.0 <= v <= 0.62 * line_rate_gbps for v in accel_maxima.values())
    return Verdict(
        "O3",
        holds and bool(accel_maxima),
        accel_maxima,
        "REM accelerator caps near 50 Gb/s for every rule set",
    )


def observation_4(rows: Sequence[Fig4Row]) -> Verdict:
    """O4: the winner flips with inputs/configurations of the *same*
    function — REM by rule set, crypto by algorithm, fio p99 by op type,
    MICA by batch size."""
    by_key = rows_by_key(list(rows))
    rem_flips = (
        by_key["rem:file_image"].throughput_ratio > 1.0
        and by_key["rem:file_executable"].throughput_ratio < 1.0
    )
    crypto_flips = (
        by_key["crypto:sha1"].throughput_ratio > 1.0
        and by_key["crypto:rsa"].throughput_ratio < 1.0
    )
    fio_flips = (
        by_key["fio:read"].p99_ratio > 1.0 and by_key["fio:write"].p99_ratio < 1.0
    )
    mica_varies = (
        abs(by_key["mica:4"].throughput_ratio - by_key["mica:32"].throughput_ratio)
        > 0.1
    )
    holds = rem_flips and crypto_flips and fio_flips and mica_varies
    return Verdict(
        "O4",
        holds,
        {
            "rem_image": by_key["rem:file_image"].throughput_ratio,
            "rem_exe": by_key["rem:file_executable"].throughput_ratio,
            "sha1": by_key["crypto:sha1"].throughput_ratio,
            "rsa": by_key["crypto:rsa"].throughput_ratio,
            "fio_read_p99": by_key["fio:read"].p99_ratio,
            "fio_write_p99": by_key["fio:write"].p99_ratio,
            "mica4": by_key["mica:4"].throughput_ratio,
            "mica32": by_key["mica:32"].throughput_ratio,
        },
        "winner depends on rule set, algorithm, op type, batch size",
    )


def observation_5(fig6: Sequence[Fig6Row]) -> Verdict:
    """O5: energy efficiency improves for some functions (fio, REM image,
    SHA-1, compression) but not universally, and idle power dominates."""
    by_key = {r.key: r for r in fig6}
    improves = ["fio:read", "rem:file_image", "crypto:sha1",
                "compression:app", "compression:txt"]
    does_not = ["redis:a", "nat:10k", "crypto:rsa", "rem:file_executable"]
    improve_ok = all(by_key[k].efficiency_ratio > 1.0 for k in improves if k in by_key)
    not_ok = all(by_key[k].efficiency_ratio < 1.0 for k in does_not if k in by_key)
    # Idle domination: every total power within ~1.75x of the idle floor.
    from ..calibration import POWER

    idle_dominates = all(
        r.host_power_w < 1.75 * POWER.server_idle_w
        and r.snic_power_w < 1.25 * POWER.server_idle_w
        for r in fig6
    )
    return Verdict(
        "O5",
        improve_ok and not_ok and idle_dominates,
        {r.key: r.efficiency_ratio for r in fig6},
        "efficiency gains exist but are bounded by idle-power domination",
    )


def format_verdicts(verdicts: Sequence[Verdict]) -> str:
    lines = []
    for verdict in verdicts:
        flag = "HOLDS" if verdict.holds else "FAILS"
        lines.append(f"[{flag}] {verdict.observation}: {verdict.summary}")
        for name, value in verdict.evidence.items():
            lines.append(f"    {name} = {value:.3f}")
    return "\n".join(lines)


def _observations_runner(ctx: ExperimentContext) -> List[Verdict]:
    # All three inputs come from the shared per-invocation result cache:
    # fig4 is measured once and feeds fig6 directly, and fig5 runs at the
    # invocation-wide fidelity (no more private hard-coded 150/8000).
    fig4_rows = ctx.run("fig4")
    fig5_curves = ctx.run("fig5")
    fig6_rows = ctx.run("fig6")
    return [
        observation_1(fig4_rows),
        observation_2(fig4_rows),
        observation_3(fig5_curves),
        observation_4(fig4_rows),
        observation_5(fig6_rows),
    ]


register(Experiment(
    name="observations",
    description="the paper's five Key Observations evaluated against "
                "measured Fig. 4/5/6 results",
    depends=("fig4", "fig5", "fig6"),
    runner=_observations_runner,
    formatter=format_verdicts,
    to_json=lambda verdicts: [
        {"observation": v.observation, "holds": v.holds,
         "summary": v.summary, "evidence": dict(v.evidence)}
        for v in verdicts
    ],
    schema={
        "type": "array",
        "minItems": 5,
        "items": {
            "type": "object",
            "required": ["observation", "holds", "summary", "evidence"],
            "properties": {
                "observation": {"type": "string"},
                "holds": {"type": "boolean"},
                "summary": {"type": "string"},
                "evidence": {"type": "object"},
            },
        },
    },
    # The observation gate is science, not plumbing: only a default-tier
    # run may fail the process over a FAILS verdict.
    verdict=lambda verdicts: 0 if all(v.holds for v in verdicts) else 1,
    tiers=smoke_tier(),
))
