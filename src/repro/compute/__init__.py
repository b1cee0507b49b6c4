"""Heterogeneous processor substrate.

Processors sit at the leaves of the Northup tree (Section III-B) and run
the computation when recursion bottoms out (Section III-E).  The paper's
OpenCL kernels are replaced by NumPy implementations that compute the
*real* answers while execution time is charged by a calibrated roofline
model: ``time = max(flops / effective_flops, bytes / memory_bandwidth)``.
That model preserves the axis the evaluation turns on -- compute-bound
GEMM hides I/O, bandwidth-bound HotSpot and SpMV do not.

* :mod:`repro.compute.processor` -- :class:`Processor`, kernel cost types.
* :mod:`repro.compute.cpu`, :mod:`repro.compute.gpu` -- calibrated models
  of the paper's A10-7850K CPU, its integrated GPU, and the FirePro W9100.
* :mod:`repro.compute.kernels` -- GEMM, HotSpot-2D, and CSR-Adaptive SpMV.
* :mod:`repro.compute.registry` -- the named processors topology specs
  refer to.
"""

from repro.compute.processor import KernelCost, Processor, ProcessorKind
from repro.compute.cpu import make_cpu_steamroller
from repro.compute.gpu import GpuProcessor, make_gpu_apu, make_gpu_w9100
from repro.compute import registry

__all__ = [
    "KernelCost",
    "Processor",
    "ProcessorKind",
    "GpuProcessor",
    "make_cpu_steamroller",
    "make_gpu_apu",
    "make_gpu_w9100",
    "registry",
]
