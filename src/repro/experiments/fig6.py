"""Figure 6: average power and system-wide energy efficiency.

For every Fig. 4 function this measures, at each platform's operating
point: the average server wall power (BMC scope), the (S)NIC device power
(riser-card scope), the breakdown between the two, and energy efficiency
(throughput / system energy) of SNIC processing normalized to host
processing — Key Observation 5's data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..power.energy import EnergyReport, efficiency_ratio
from .fig4 import Fig4Row
from .registry import Experiment, register, smoke_tier


@dataclass
class Fig6Row:
    key: str
    display: str
    snic_platform: str
    host_power_w: float
    snic_power_w: float  # server power while the SNIC processes
    host_device_w: float  # the SNIC sitting idle in the host run
    snic_device_w: float  # the SNIC while processing
    host_goodput_gbps: float
    snic_goodput_gbps: float

    @property
    def efficiency_ratio(self) -> float:
        """SNIC-processing efficiency normalized to host-processing."""
        host = EnergyReport("host", self.host_goodput_gbps, self.host_power_w)
        snic = EnergyReport("snic", self.snic_goodput_gbps, self.snic_power_w)
        return efficiency_ratio(snic, host)


def rows_from_fig4(fig4_rows: Sequence[Fig4Row]) -> List[Fig6Row]:
    """Derive the power/efficiency figure from measured operating points."""
    rows = []
    for row in fig4_rows:
        rows.append(
            Fig6Row(
                key=row.key,
                display=row.display,
                snic_platform=row.snic.platform,
                host_power_w=row.host.server_power_w,
                snic_power_w=row.snic.server_power_w,
                host_device_w=row.host.device_power_w,
                snic_device_w=row.snic.device_power_w,
                host_goodput_gbps=row.host.goodput_gbps,
                snic_goodput_gbps=row.snic.goodput_gbps,
            )
        )
    return rows


def format_fig6(rows: List[Fig6Row]) -> str:
    lines = [
        f"{'function':<24} {'hostW':>7} {'snicW':>7} "
        f"{'snic devW':>9} {'eff ratio':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row.display:<24} {row.host_power_w:>7.1f} {row.snic_power_w:>7.1f} "
            f"{row.snic_device_w:>9.1f} {row.efficiency_ratio:>9.2f}"
        )
    return "\n".join(lines)


def _fig6_chart(rows: List[Fig6Row]) -> str:
    from ..analysis.plots import fig6_chart

    return fig6_chart(rows)


def _write_fig6_csv(stream, rows: List[Fig6Row]) -> int:
    from ..analysis.export import write_fig6_csv

    return write_fig6_csv(stream, rows)


def fig6_row_json(row: Fig6Row) -> dict:
    return {
        "key": row.key,
        "display": row.display,
        "snic_platform": row.snic_platform,
        "host_power_w": row.host_power_w,
        "snic_power_w": row.snic_power_w,
        "host_device_w": row.host_device_w,
        "snic_device_w": row.snic_device_w,
        "host_goodput_gbps": row.host_goodput_gbps,
        "snic_goodput_gbps": row.snic_goodput_gbps,
        "efficiency_ratio": row.efficiency_ratio,
    }


register(Experiment(
    name="fig6",
    description="server and device power at each Fig. 4 operating point "
                "plus SNIC-over-host energy-efficiency ratios",
    depends=("fig4",),
    runner=lambda ctx: rows_from_fig4(ctx.run("fig4")),
    formatter=format_fig6,
    chart=_fig6_chart,
    csv_writer=_write_fig6_csv,
    to_json=lambda rows: [fig6_row_json(row) for row in rows],
    schema={
        "type": "array",
        "minItems": 1,
        "items": {
            "type": "object",
            "required": ["key", "snic_platform", "host_power_w",
                         "snic_power_w", "efficiency_ratio"],
            "properties": {
                "key": {"type": "string"},
                "host_power_w": {"type": "number"},
                "snic_power_w": {"type": "number"},
                "efficiency_ratio": {"type": ["number", "null"]},
            },
        },
    },
    tiers=smoke_tier(),
))
