"""Hardware specifications (Tables 1 and 2 of the paper) as data.

These are *descriptive* records — physical parameters of the evaluated
testbed.  Performance coefficients (cycles per work unit, stack costs) live
separately in :mod:`repro.calibration` because they are measured/derived
quantities, not datasheet facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Optional


class IsaFeature(str, Enum):
    """ISA extensions and hardware features that change function costs."""

    AES_NI = "aes-ni"
    AVX512 = "avx512"
    RDRAND = "rdrand"
    SSE42 = "sse4.2"
    NEON = "neon"


@dataclass(frozen=True)
class CacheSpec:
    l1d_kb: int
    l1i_kb: int
    l2_kb: int
    llc_kb: int


@dataclass(frozen=True)
class CpuSpec:
    model: str
    architecture: str  # "x86_64" | "aarch64"
    cores: int
    frequency_hz: float
    features: FrozenSet[IsaFeature]
    cache: CacheSpec
    tdp_watts: float


@dataclass(frozen=True)
class MemorySpec:
    capacity_gb: int
    technology: str
    channels: int
    bandwidth_gbs: float  # peak GB/s


@dataclass(frozen=True)
class PcieSpec:
    generation: int
    lanes: int
    # One-way latency of a posted transaction through the root complex.
    transaction_latency_s: float

    @property
    def bandwidth_gbs(self) -> float:
        """Usable unidirectional bandwidth in GB/s (after encoding)."""
        per_lane = {3: 0.985, 4: 1.969, 5: 3.938}[self.generation]
        return per_lane * self.lanes


@dataclass(frozen=True)
class AcceleratorSpec:
    """A fixed-function engine on the SNIC (REM / crypto / compression)."""

    name: str
    # Peak processed payload bytes per second (None for op-rate engines).
    peak_bytes_per_s: float
    # Per-task fixed overhead (DMA descriptor fetch, engine setup).
    setup_latency_s: float
    # Max buffers per submitted task (DOCA batching).
    max_batch: int
    # Op-rate engines (public-key crypto) express their peak in ops/s.
    peak_ops_per_s: float = 0.0


@dataclass(frozen=True)
class NicSpec:
    model: str
    port_gbps: float
    ports: int
    # eSwitch forwarding capacity (bump-in-the-wire, no CPU involved).
    eswitch_gbps: float
    # Hardware RDMA message rate (million messages/s, small messages).
    rdma_mpps: float


@dataclass(frozen=True)
class SnicSpec:
    """BlueField-2-class SmartNIC: NIC + Arm SoC + accelerators."""

    model: str
    nic: NicSpec
    cpu: CpuSpec
    memory: MemorySpec
    pcie: PcieSpec
    accelerators: Dict[str, AcceleratorSpec] = field(default_factory=dict)
    idle_power_w: float = 0.0
    max_active_power_w: float = 0.0


@dataclass(frozen=True)
class ServerSpec:
    name: str
    cpu: CpuSpec
    memory: MemorySpec
    pcie: PcieSpec
    idle_power_w: float = 0.0
    max_active_power_w: float = 0.0


# ---------------------------------------------------------------------------
# The paper's testbed (Tables 1 and 2)
# ---------------------------------------------------------------------------

BLUEFIELD2_CPU = CpuSpec(
    model="ARMv8 A72",
    architecture="aarch64",
    cores=8,
    frequency_hz=2.0e9,
    features=frozenset({IsaFeature.NEON}),
    cache=CacheSpec(l1d_kb=32, l1i_kb=48, l2_kb=512, llc_kb=6 * 1024),
    tdp_watts=16.0,
)

BLUEFIELD2_NIC = NicSpec(
    model="ConnectX-6 Dx",
    port_gbps=100.0,
    ports=2,
    eswitch_gbps=100.0,
    rdma_mpps=215.0,
)

BLUEFIELD2 = SnicSpec(
    model="NVIDIA BlueField-2 (MBF2M516A-CEEOT)",
    nic=BLUEFIELD2_NIC,
    cpu=BLUEFIELD2_CPU,
    memory=MemorySpec(capacity_gb=16, technology="DDR4-3200", channels=1, bandwidth_gbs=25.6),
    pcie=PcieSpec(generation=4, lanes=16, transaction_latency_s=300e-9),
    accelerators={
        "rem": AcceleratorSpec(
            name="regular-expression-matching",
            peak_bytes_per_s=50.0e9 / 8,  # ~50 Gbps (Key Observation 3)
            setup_latency_s=18e-6,
            max_batch=64,
        ),
        "compression": AcceleratorSpec(
            name="deflate-compression",
            peak_bytes_per_s=50.0e9 / 8,
            setup_latency_s=15e-6,
            max_batch=32,
        ),
        "crypto": AcceleratorSpec(
            name="public-key-acceleration",
            peak_bytes_per_s=4.6e9,  # bulk AES/SHA path
            setup_latency_s=6e-6,
            max_batch=16,
            peak_ops_per_s=22_000.0,  # RSA-2048 sign/s class
        ),
    },
    idle_power_w=29.0,
    max_active_power_w=34.4,  # idle + 5.4 W active ceiling (§4, Fig. 6)
)

HOST_CPU = CpuSpec(
    model="Intel Xeon Gold 6140 (Skylake)",
    architecture="x86_64",
    cores=18,  # package; experiments pin 8 to mirror the SNIC (§3.4)
    frequency_hz=2.1e9,  # userspace governor pin under TDP (§3.1)
    features=frozenset(
        {IsaFeature.AES_NI, IsaFeature.AVX512, IsaFeature.RDRAND, IsaFeature.SSE42}
    ),
    cache=CacheSpec(l1d_kb=32, l1i_kb=32, l2_kb=1024, llc_kb=25344),
    tdp_watts=140.0,
)

SERVER = ServerSpec(
    name="server (Table 2)",
    cpu=HOST_CPU,
    memory=MemorySpec(capacity_gb=128, technology="DDR4-2666", channels=6, bandwidth_gbs=128.0),
    pcie=PcieSpec(generation=3, lanes=16, transaction_latency_s=900e-9),
    idle_power_w=252.0,  # measured with the SNIC installed and idle (§4)
    max_active_power_w=252.0 + 150.6,
)

CLIENT_CPU = CpuSpec(
    model="Intel Xeon E5-2640 v3 (Broadwell)",
    architecture="x86_64",
    cores=8,
    frequency_hz=2.6e9,
    features=frozenset({IsaFeature.AES_NI, IsaFeature.SSE42}),
    cache=CacheSpec(l1d_kb=32, l1i_kb=32, l2_kb=256, llc_kb=20480),
    tdp_watts=90.0,
)

CLIENT = ServerSpec(
    name="client (Table 2)",
    cpu=CLIENT_CPU,
    memory=MemorySpec(capacity_gb=32, technology="DDR4-1866", channels=4, bandwidth_gbs=59.7),
    pcie=PcieSpec(generation=3, lanes=16, transaction_latency_s=900e-9),
    idle_power_w=180.0,
    max_active_power_w=280.0,
)

CONNECTX6_DX = NicSpec(
    model="ConnectX-6 Dx (MCX623106AC-CDAT)",
    port_gbps=100.0,
    ports=2,
    eswitch_gbps=100.0,
    rdma_mpps=215.0,
)

# Number of host cores used in all paper experiments unless noted.
PAPER_HOST_CORES = 8

# Component market prices used by the paper's TCO analysis (§5.2).
PRICES_USD: Dict[str, float] = {
    "server_without_nic": 6287.0,
    "snic_bluefield2": 1817.0,
    "nic_connectx6dx": 1478.0,
}

ELECTRICITY_USD_PER_KWH = 0.162
SERVER_LIFETIME_YEARS = 5


# ---------------------------------------------------------------------------
# Cluster node profiles (descriptive composition only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeSpec:
    """One cluster node: a chassis plus its network attachment.

    Purely compositional — which datasheet parts make up the node and what
    they cost.  How the node *behaves* (which platform serves requests,
    which stack carries the fabric transport) is a calibration question
    and lives in :data:`repro.calibration.NODE_PROFILES`.

    ``server`` is ``None`` for headless all-SNIC nodes (the Lovelock
    direction in PAPERS.md): the SmartNIC is the whole node.
    """

    name: str
    server: Optional[ServerSpec]
    snic: Optional[SnicSpec]
    nic: Optional[NicSpec]

    @property
    def price_usd(self) -> float:
        """Component capex from the paper's price table (§5.2)."""
        total = 0.0
        if self.server is not None:
            total += PRICES_USD["server_without_nic"]
        if self.snic is not None:
            total += PRICES_USD["snic_bluefield2"]
        if self.nic is not None:
            total += PRICES_USD["nic_connectx6dx"]
        return total


NODE_SPECS: Dict[str, NodeSpec] = {
    # The paper's testbed: a Xeon server with an on-path BlueField-2.
    "host+bf2": NodeSpec(
        name="host + BlueField-2",
        server=SERVER, snic=BLUEFIELD2, nic=None,
    ),
    # The TCO baseline: the same server with a plain ConnectX-6 Dx.
    "host-only": NodeSpec(
        name="host + ConnectX-6 Dx",
        server=SERVER, snic=None, nic=CONNECTX6_DX,
    ),
    # Headless SmartNIC node: no host behind the SNIC at all.
    "all-snic": NodeSpec(
        name="headless BlueField-2",
        server=None, snic=BLUEFIELD2, nic=None,
    ),
}
