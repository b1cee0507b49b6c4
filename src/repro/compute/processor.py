"""Processor model and kernel cost accounting.

A :class:`Processor` is the ``processor_t`` of the paper's Listing 1: it
hangs off a (usually leaf) tree node and owns a hardware cache hierarchy
the framework does not manage.  Timing uses the roofline model: a kernel
is characterised by its flop count and its memory traffic
(:class:`KernelCost`), and runs at whichever limit binds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.trace import Phase


class ProcessorKind(enum.Enum):
    CPU = "cpu"
    GPU = "gpu"
    FPGA = "fpga"


@dataclass(frozen=True)
class KernelCost:
    """Work performed by one kernel launch.

    Attributes
    ----------
    flops:
        Floating-point operations executed.
    bytes_read, bytes_written:
        Traffic to the processor's attached memory, *after* on-chip
        blocking (a tiled GEMM reads each operand once per tile pass, not
        once per multiply).
    efficiency:
        Fraction of peak flops this kernel sustains on a well-tuned
        implementation (the paper's GEMM reaches >80% of peak, stencils
        and SpMV far less).
    bw_efficiency:
        Fraction of peak memory bandwidth the access pattern sustains
        (regular streams ~0.8-0.9, CSR gathers less).
    """

    flops: float
    bytes_read: float
    bytes_written: float = 0.0
    efficiency: float = 1.0
    bw_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_read < 0 or self.bytes_written < 0:
            raise ConfigError("kernel cost terms must be non-negative")
        if not (0.0 < self.efficiency <= 1.0):
            raise ConfigError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not (0.0 < self.bw_efficiency <= 1.0):
            raise ConfigError(f"bw_efficiency must be in (0, 1], got {self.bw_efficiency}")

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written


@dataclass
class Processor:
    """One compute element attached to a tree node.

    Attributes
    ----------
    name:
        Instance name; also the timeline resource this processor occupies.
    kind:
        CPU / GPU / FPGA.
    peak_gflops:
        Single-precision peak in GFLOP/s.
    mem_bw:
        Attached-memory bandwidth in bytes/s (an APU's GPU shares host
        DRAM; a discrete GPU sees its GDDR5).
    llc_size:
        Last-level (hardware-managed) cache in bytes -- the transition
        point from software- to hardware-managed memory (Section II).
    launch_overhead:
        Fixed per-kernel-launch cost in seconds (driver + dispatch).
    """

    name: str
    kind: ProcessorKind
    peak_gflops: float
    mem_bw: float
    llc_size: int = 0
    launch_overhead: float = 20e-6

    def __post_init__(self) -> None:
        if self.peak_gflops <= 0:
            raise ConfigError(f"{self.name}: peak_gflops must be positive")
        if self.mem_bw <= 0:
            raise ConfigError(f"{self.name}: mem_bw must be positive")

    @property
    def phase(self) -> Phase:
        """Trace phase for kernels on this processor."""
        return Phase.CPU_COMPUTE if self.kind is ProcessorKind.CPU else Phase.GPU_COMPUTE

    @property
    def resource(self) -> str:
        return self.name

    def exec_time(self, cost: KernelCost) -> float:
        """Roofline execution time for one launch."""
        compute_t = cost.flops / (self.peak_gflops * 1e9 * cost.efficiency)
        memory_t = cost.bytes_total / (self.mem_bw * cost.bw_efficiency)
        return self.launch_overhead + max(compute_t, memory_t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Processor({self.name!r}, {self.kind.value}, "
                f"{self.peak_gflops:.0f} GFLOP/s, {self.mem_bw / 1e9:.0f} GB/s)")
