"""Render the paper's configuration tables (1-3) from the spec records.

These are descriptive, not experimental — but regenerating them from
`hardware/specs.py` and the profile catalog keeps the documentation and
the code from drifting apart, and gives the CLI a complete set of paper
artifacts.
"""

from __future__ import annotations


from ..experiments.profiles import ALL_PROFILE_KEYS, get_profile
from ..hardware.specs import BLUEFIELD2, CLIENT, SERVER


def format_table1() -> str:
    """Table 1: specifications of BlueField-2."""
    snic = BLUEFIELD2
    cache = snic.cpu.cache
    rows = [
        ("CPU", f"{snic.cpu.cores} x {snic.cpu.model} at "
                f"{snic.cpu.frequency_hz/1e9:.1f} GHz"),
        ("Accelerator", ", ".join(sorted(snic.accelerators))),
        ("Cache", f"{cache.l1d_kb} KB L1-D / {cache.l1i_kb} KB L1-I per core, "
                  f"{cache.l2_kb} KB L2 per 2 cores, "
                  f"{cache.llc_kb // 1024} MB shared L3"),
        ("Memory", f"{snic.memory.capacity_gb} GB on-board {snic.memory.technology}"),
        ("Network", f"{snic.nic.ports} x {snic.nic.port_gbps:.0f} Gb/s "
                    f"({snic.nic.model})"),
        ("PCIe", f"x{snic.pcie.lanes} Gen {snic.pcie.generation}.0"),
    ]
    width = max(len(label) for label, _ in rows)
    lines = ["Table 1: Specifications of BlueField-2"]
    lines += [f"  {label:<{width}}  {value}" for label, value in rows]
    return "\n".join(lines)


def format_table2() -> str:
    """Table 2: system configurations (client and server)."""
    lines = ["Table 2: System configurations", ""]
    header = f"  {'':<16} {'Client':<38} {'Server':<38}"
    lines.append(header)
    rows = [
        ("Processor", CLIENT.cpu.model, SERVER.cpu.model),
        ("LLC", f"{CLIENT.cpu.cache.llc_kb/1024:.2f} MB",
         f"{SERVER.cpu.cache.llc_kb/1024:.2f} MB"),
        ("System Memory",
         f"{CLIENT.memory.capacity_gb} GB {CLIENT.memory.technology}, "
         f"{CLIENT.memory.channels} channels",
         f"{SERVER.memory.capacity_gb} GB {SERVER.memory.technology}, "
         f"{SERVER.memory.channels} channels"),
        ("NIC", "ConnectX-6 Dx", "BlueField-2"),
    ]
    for label, client_value, server_value in rows:
        lines.append(f"  {label:<16} {client_value:<38} {server_value:<38}")
    return "\n".join(lines)


def format_table3() -> str:
    """Table 3: the benchmark matrix (stack + execution platforms)."""
    lines = [
        "Table 3: Benchmarks (HC=host CPU, SC=SNIC CPU, SA=SNIC accelerator)",
        "",
        f"  {'benchmark':<26} {'stack':<8} {'HC':>3} {'SC':>3} {'SA':>3}  notes",
    ]
    seen_families = set()
    for key in ALL_PROFILE_KEYS:
        family = key.split(":")[0]
        if family in seen_families or family in ("udp", "dpdk", "rdma"):
            continue
        seen_families.add(family)
        profile = get_profile(key, samples=10)
        marks = {
            "HC": "x" if "host" in profile.platforms else "",
            "SC": "x" if "snic-cpu" in profile.platforms else "",
            "SA": "x" if "snic-accel" in profile.platforms else "",
        }
        lines.append(
            f"  {profile.display:<26} {profile.stack or 'local':<8} "
            f"{marks['HC']:>3} {marks['SC']:>3} {marks['SA']:>3}  {profile.notes[:48]}"
        )
    return "\n".join(lines)


def format_all_tables() -> str:
    return "\n\n".join([format_table1(), format_table2(), format_table3()])


def _register() -> None:
    # Local import: this module is also imported by experiment modules'
    # consumers; keeping the registry import inside the function avoids
    # widening the import graph at module-import time.
    from ..experiments.registry import Experiment, register, smoke_tier

    register(Experiment(
        name="tables",
        description="the paper's descriptive tables regenerated from the "
                    "spec records and the profile catalog",
        runner=lambda ctx: format_all_tables(),
        formatter=lambda text: text,
        to_json=lambda text: {
            "tables": [format_table1(), format_table2(), format_table3()],
        },
        schema={
            "type": "object",
            "required": ["tables"],
            "properties": {
                "tables": {"type": "array", "minItems": 3,
                           "items": {"type": "string"}},
            },
        },
        tiers=smoke_tier(),
    ))


_register()
