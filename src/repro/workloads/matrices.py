"""Dense matrix workloads: each generator is a band form yielding
``(first_row, block)``, which apps write straight into root buffers
(:func:`load_bands`), plus the whole array its bands concatenate to."""

from __future__ import annotations

import numpy as np

from repro.core.buffers import BufferHandle
from repro.core.system import System
from repro.errors import ConfigError

#: Host bytes of one band's float64 draws (at least one row).
BAND_BYTES = 2 << 20


def row_bands(rows: int, cols: int):
    """``(first, stop)`` row ranges of :data:`BAND_BYTES` of float64."""
    step = max(1, BAND_BYTES // (8 * cols))
    return ((first, min(rows, first + step))
            for first in range(0, rows, step))


def uniform_bands(rows: int, cols: int, seed: int):
    """``(first, float64 block)`` bands of one ``default_rng(seed)``
    uniform stream: together, ``rng.random((rows, cols))``."""
    if rows < 1 or cols < 1:
        raise ConfigError(f"dims must be >= 1, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    for first, stop in row_bands(rows, cols):
        yield first, rng.random((stop - first, cols))


def random_dense_bands(rows: int, cols: int, *, seed: int,
                       dtype=np.float32, scale: float = 1.0):
    """Band form of :func:`random_dense` (its arithmetic, in place)."""
    for first, block in uniform_bands(rows, cols, seed):
        block *= 2.0
        block -= 1.0
        block *= scale
        yield first, block.astype(dtype)


def random_dense(rows: int, cols: int, *, seed: int,
                 dtype=np.float32, scale: float = 1.0) -> np.ndarray:
    """A seeded dense matrix with entries in ``[-scale, scale]``.

    Uniform (rather than normal) entries keep partial-sum magnitudes
    stable for the float32 accumulation checks in the GEMM tests.
    """
    return np.concatenate([b for _, b in random_dense_bands(
        rows, cols, seed=seed, dtype=dtype, scale=scale)])


def load_bands(system: System, handle: BufferHandle, bands) -> None:
    """Write ``(first_row, block)`` bands into a row-major buffer."""
    for first, block in bands:
        system.preload(handle, block,
                       offset=first * (block.nbytes // len(block)))
