"""HotSpot thermal workloads.

Rodinia's HotSpot inputs are a temperature field near ambient and a
power-density map with hot functional blocks; these generators produce
the same structure at any resolution, whole or as row bands.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.workloads.matrices import uniform_bands

AMBIENT = 80.0  # matches the kernel's scaled ambient


def initial_temperature_bands(rows: int, cols: int, *, seed: int,
                              spread: float = 10.0):
    """Band form of :func:`initial_temperature`."""
    for first, base in uniform_bands(rows, cols, seed):
        base *= spread
        base += AMBIENT
        yield first, base.astype(np.float32)


def initial_temperature(rows: int, cols: int, *, seed: int,
                        spread: float = 10.0) -> np.ndarray:
    """Temperature field: ambient plus smooth seeded variation."""
    return np.concatenate([b for _, b in initial_temperature_bands(
        rows, cols, seed=seed, spread=spread)])


def power_grid_bands(rows: int, cols: int, *, seed: int, hot_blocks: int = 4,
                     peak: float = 1.0):
    """Band form of :func:`power_grid`.  The hot blocks follow the whole
    background in the RNG stream, so a second generator advanced past it
    places them up front; each band adds their overlap, in order."""
    if rows < 1 or cols < 1 or hot_blocks < 0:
        raise ConfigError(f"need a >= 1x1 grid and hot_blocks >= 0, got "
                          f"{rows}x{cols} and {hot_blocks}")
    ahead = np.random.default_rng(seed)
    ahead.bit_generator.advance(rows * cols)
    h, w = max(1, rows // 8), max(1, cols // 8)
    hot = [(int(ahead.integers(0, max(1, rows - h + 1))),
            int(ahead.integers(0, max(1, cols - w + 1))),
            peak * (0.5 + 0.5 * ahead.random())) for _ in range(hot_blocks)]
    for first, power in uniform_bands(rows, cols, seed):
        power *= 0.01 * peak
        power = power.astype(np.float32)
        for r0, c0, heat in hot:
            power[max(0, r0 - first):max(0, r0 + h - first),
                  c0:c0 + w] += heat
        yield first, power


def power_grid(rows: int, cols: int, *, seed: int, hot_blocks: int = 4,
               peak: float = 1.0) -> np.ndarray:
    """Power density: low background draw plus rectangular hot blocks
    (cores, caches) placed by the seed."""
    return np.concatenate([b for _, b in power_grid_bands(
        rows, cols, seed=seed, hot_blocks=hot_blocks, peak=peak)])
