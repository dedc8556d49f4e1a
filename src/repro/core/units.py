"""Unit helpers.

The kernel's base time unit is the second and the base data unit is the
byte; this helper keeps experiment code readable and eliminates the
classic NIC-paper conversion mistake (Gb/s vs GB/s).
"""

from __future__ import annotations

BITS_PER_BYTE = 8


def gbps_to_bytes_per_second(gbps: float) -> float:
    """Decimal gigabits per second -> bytes per second (network convention)."""
    return gbps * 1e9 / BITS_PER_BYTE
