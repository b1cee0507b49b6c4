"""GPU models.

Two parts from the paper's testbed (Section V-A):

* the GPU half of the A10-7850K APU -- 8 GCN compute units, 512 lanes at
  720 MHz = 737 GFLOP/s SP, sharing host DRAM bandwidth (~20 GB/s) and
  the host address space (HSA shared virtual memory);
* the FirePro W9100 discrete card -- 44 CUs, 2816 lanes at 930 MHz =
  5.24 TFLOP/s SP with 320 GB/s of GDDR5 behind a PCIe link.

Beyond the roofline (inherited from :class:`Processor`), the GPU model
records its occupancy parameters: the device needs several workgroups
per SIMD engine in flight to hide memory latency, and a kernel fed from
``q`` work queues keeps at most ``q`` of them.  Figure 11's steal
simulation (:mod:`repro.core.stealing`) saturates at the APU's
``simd_engines x waves_per_simd_for_peak`` = 32 workgroups -- why 32
queues beat 8 and 16 there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compute.processor import Processor, ProcessorKind
from repro.errors import ConfigError
from repro.memory.units import GB, KiB, MiB


@dataclass
class GpuProcessor(Processor):
    """A GPU with its occupancy parameters.

    Attributes
    ----------
    compute_units:
        GCN CU count; each CU has 64 KiB of local memory.
    simd_engines:
        Front-end SIMD engines; Figure 11 reasons about workgroups per
        SIMD engine ("multiple workgroups per GPU SIMD engine is needed
        to fully utilize GPU hardware and hide latency").
    waves_per_simd_for_peak:
        Concurrent workgroups per SIMD engine required for full latency
        hiding.
    """

    compute_units: int = 8
    simd_engines: int = 8
    waves_per_simd_for_peak: int = 4
    local_mem_per_cu: int = 64 * KiB

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.compute_units < 1 or self.simd_engines < 1:
            raise ConfigError(f"{self.name}: CU/SIMD counts must be >= 1")
        if self.waves_per_simd_for_peak < 1:
            raise ConfigError(f"{self.name}: waves_per_simd_for_peak must be >= 1")


def make_gpu_apu(*, name: str = "gpu-apu", mem_bw: float = 20 * GB) -> GpuProcessor:
    """The integrated GPU of the A10-7850K (737 GFLOP/s SP, shares DRAM)."""
    return GpuProcessor(
        name=name,
        kind=ProcessorKind.GPU,
        peak_gflops=737.0,
        mem_bw=mem_bw,
        llc_size=512 * KiB,
        launch_overhead=15e-6,
        compute_units=8,
        simd_engines=8,
        waves_per_simd_for_peak=4,
    )


def make_gpu_w9100(*, name: str = "gpu-w9100") -> GpuProcessor:
    """The FirePro W9100 (5.24 TFLOP/s SP, 320 GB/s GDDR5)."""
    return GpuProcessor(
        name=name,
        kind=ProcessorKind.GPU,
        peak_gflops=5240.0,
        mem_bw=320 * GB,
        llc_size=1 * MiB,
        launch_overhead=25e-6,
        compute_units=44,
        simd_engines=44,
        waves_per_simd_for_peak=4,
    )
