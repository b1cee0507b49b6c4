"""Named device catalog: every calibrated device spec, in one place.

One lookup point, so topology specs can name devices with strings
(``"ssd"``, ``"hdd"``, ``"dram"``, ...), the bench configs can
enumerate what exists, and :func:`make_device` is the one way to build
a device.  The numbers match the hardware in Section V-A, plus the
technologies Section II motivates as future levels.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.memory.device import Device, DeviceSpec, StorageKind
from repro.memory.backends import DataBackend, MemBackend
from repro.memory.units import GB, KiB, MB

# SATA hard disk: the paper's Western Digital WD5000AAKX, a 500 GB,
# 7200 rpm drive.  Sustained sequential transfer is ~125 MB/s in both
# directions with a single head, so reads and writes serialise; average
# access latency (seek + rotational) is ~12 ms, which is what punishes
# the variable-sized CSR-Adaptive shards relative to HotSpot's regular
# blocks (Section V-B).
WD5000AAKX = DeviceSpec(
    name="hdd-wd5000aakx",
    kind=StorageKind.FILE,
    capacity=500 * GB,
    read_bw=125 * MB,
    write_bw=125 * MB,
    latency=12e-3,
    duplex=False,
)

# PCIe SSDs: the paper's entry-level HyperX Predator (up to 1400 MB/s
# read, 600 MB/s write), and the 3500/2100 MB/s part Figure 9 projects
# to, "some of the fastest PCI-E SSDs on the market" in 2019.  Reads and
# writes share one channel: the paper opens files with
# ``O_DIRECT | O_SYNC``, so storage writes are synchronous and contend
# with the read stream.
HYPERX_PREDATOR = DeviceSpec(
    name="ssd-hyperx-predator",
    kind=StorageKind.FILE,
    capacity=480 * GB,
    read_bw=1400 * MB,
    write_bw=600 * MB,
    latency=80e-6,
    duplex=False,
)

FAST_PCIE_SSD = DeviceSpec(
    name="ssd-fast-pcie",
    kind=StorageKind.FILE,
    capacity=960 * GB,
    read_bw=3500 * MB,
    write_bw=2100 * MB,
    latency=60e-6,
    duplex=False,
)

# Non-volatile memory in the two configurations Section II motivates:
# fast block *storage* behind the filesystem, or byte-addressable slow
# *memory* in the physical address space -- which one a topology uses is
# the virtual-to-physical remapping the tree is designed for
# (Section III-B).  Numbers follow 2019-era first-generation parts:
# ~2.5/2.0 GB/s in block mode, ~6.8/2.3 GB/s at ~350 ns as DIMMs.
NVM_BLOCK = DeviceSpec(
    name="nvm-block",
    kind=StorageKind.FILE,
    capacity=750 * GB,
    read_bw=2.5 * GB,
    write_bw=2.0 * GB,
    latency=10e-6,
    duplex=False,
)

NVM_DIMM = DeviceSpec(
    name="nvm-dimm",
    kind=StorageKind.MEM,
    capacity=512 * GB,
    read_bw=6.8 * GB,
    write_bw=2.3 * GB,
    latency=350e-9,
    duplex=True,
)

# Host DRAM: the APU platform's dual-channel DDR3; ~20 GB/s sustained is
# the figure consistent with its Kaveri test systems.  Reads and writes
# go through independent controller queues.
DDR3_DUAL_CHANNEL = DeviceSpec(
    name="dram-ddr3",
    kind=StorageKind.MEM,
    capacity=16 * GB,
    read_bw=20 * GB,
    write_bw=20 * GB,
    latency=100e-9,
    duplex=True,
)

# Die-stacked DRAM (Section II): a small, high-bandwidth level that
# "fills the gap between SRAM and DRAM".  First-generation HBM stacks
# deliver ~128 GB/s with a few GB; this is a 4 GB / 160 GB/s part,
# usable as an extra level between DRAM and the processors.
HBM_STACK = DeviceSpec(
    name="hbm-stack",
    kind=StorageKind.MEM,
    capacity=4 * GB,
    read_bw=160 * GB,
    write_bw=160 * GB,
    latency=60e-9,
    duplex=True,
)

# Discrete-GPU device memory (Section V-C, Figure 8): the FirePro
# W9100's 16 GB of GDDR5 at 320 GB/s.
W9100_GDDR5 = DeviceSpec(
    name="gpu-gddr5-w9100",
    kind=StorageKind.GPU_DEVICE,
    capacity=16 * GB,
    read_bw=320 * GB,
    write_bw=320 * GB,
    latency=400e-9,
    duplex=True,
)

# Per-compute-unit local memory (OpenCL ``local`` / CUDA ``shared``):
# 64 KiB per CU at scratchpad bandwidth.  The paper's kernels block into
# it explicitly (16x16 tiles); it is the innermost software-managed
# level when a topology models on-chip movement.
GPU_LOCAL_MEM = DeviceSpec(
    name="gpu-local",
    kind=StorageKind.GPU_LOCAL,
    capacity=64 * KiB,
    read_bw=2000 * GB,
    write_bw=2000 * GB,
    latency=5e-9,
    duplex=True,
)

SPECS: dict[str, DeviceSpec] = {
    "hdd": WD5000AAKX,
    "ssd": HYPERX_PREDATOR,
    "ssd-fast": FAST_PCIE_SSD,
    "nvm": NVM_BLOCK,
    "nvm-dimm": NVM_DIMM,
    "dram": DDR3_DUAL_CHANNEL,
    "hbm": HBM_STACK,
    "gpu-mem": W9100_GDDR5,
    "gpu-local": GPU_LOCAL_MEM,
}


def spec(name: str) -> DeviceSpec:
    """The calibrated spec registered under ``name``."""
    try:
        return SPECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown device {name!r}; known devices: {sorted(SPECS)}"
        ) from None


def make_device(name: str, *, capacity: int | None = None,
                instance: str = "",
                backend: DataBackend | None = None) -> Device:
    """Instantiate a catalog device, optionally overriding capacity."""
    s = spec(name)
    if capacity is not None:
        s = s.scaled(capacity=capacity)
    return Device(spec=s, backend=backend or MemBackend(), instance=instance)


def names() -> list[str]:
    return sorted(SPECS)
