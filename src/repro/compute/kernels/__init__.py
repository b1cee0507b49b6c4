"""Compute kernels for the paper's three case-study algorithms.

Each kernel module provides (a) a NumPy implementation computing real
answers, (b) the algorithm-specific structure the paper describes
(blocking for GEMM, ghost-zone halos for HotSpot-2D, row binning for
CSR-Adaptive), and (c) a :class:`~repro.compute.processor.KernelCost`
constructor feeding the roofline timing model.

* :mod:`repro.compute.kernels.gemm` -- dense matrix multiply (IV-A).
* :mod:`repro.compute.kernels.hotspot` -- HotSpot-2D thermal stencil (IV-B).
* :mod:`repro.compute.kernels.spmv` -- CSR-Adaptive SpMV (IV-C).
"""

from repro.compute.kernels import gemm, hotspot, spmv

__all__ = ["gemm", "hotspot", "spmv"]
