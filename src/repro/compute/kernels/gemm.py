"""Dense matrix multiply kernel (paper Section IV-A).

The paper extends an optimised tiled OpenCL GEMM that reaches >80% of
peak GPU FLOPS, blocking 16x16 tiles into per-CU local memory.  Here
:func:`gemm_block` is the one kernel -- ``c += a @ b`` on one block, the
partial-sum step of Figure 3 -- and :func:`gemm_cost` charges roofline
time assuming local-memory tiling (each operand element is read from
device memory once per tile pass, so traffic is ``2*m*n*k/tile`` words
instead of ``2*m*n*k``).
"""

from __future__ import annotations

import numpy as np

from repro.compute.processor import KernelCost
from repro.errors import KernelError

#: Effective reuse factor for device-memory traffic.  LDS tiling alone
#: (16x16) gives only ~4 flops/byte -- not enough to reach 80% of peak on
#: an APU fed by 20 GB/s DRAM.  The paper's kernel *does* reach >80% of
#: peak, which implies additional register- and cache-level blocking; 256
#: is the effective macro-tile edge consistent with that measurement.
MACRO_REUSE = 256

#: Fraction of peak FLOPS the tuned kernel sustains (">80% of peak").
GEMM_EFFICIENCY = 0.80

#: Bytes per element: the kernel runs in single precision.
DTYPE_SIZE = 4


def gemm_cost(m: int, k: int, n: int, *,
              efficiency: float = GEMM_EFFICIENCY) -> KernelCost:
    """Roofline cost of one ``(m x k) @ (k x n)`` launch.

    With an effective ``MACRO_REUSE x MACRO_REUSE`` macro tile (LDS +
    registers + cache), each output tile streams a ``MACRO_REUSE x k``
    strip of A and a ``k x MACRO_REUSE`` strip of B, giving
    ``2*m*n*k/MACRO_REUSE`` words of device-memory reads; C is written
    once.
    """
    if min(m, k, n) < 1:
        raise KernelError(f"gemm dims must be >= 1, got {(m, k, n)}")
    flops = 2.0 * m * k * n
    bytes_read = 2.0 * m * n * k / MACRO_REUSE * DTYPE_SIZE
    bytes_written = float(m * n * DTYPE_SIZE)
    return KernelCost(flops=flops, bytes_read=bytes_read,
                      bytes_written=bytes_written, efficiency=efficiency,
                      bw_efficiency=0.9)


def gemm_block(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """Executor entry point (module-level, picklable): ``c += a @ b``.

    The accumulate makes C an *inout* operand -- asynchronous backends
    must snapshot its prior contents, which :class:`repro.exec.base.Binding`'s
    ``update`` marking guarantees.
    """
    c += a @ b
