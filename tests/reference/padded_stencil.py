"""The padded-array HotSpot stencil, retained for equivalence testing.

This is the expression form :func:`repro.compute.kernels.hotspot._sweep`
replaced: every step builds a fresh ``(R+2, C+2)`` padded copy and
evaluates Rodinia's update as one NumPy expression, with a temporary per
operation.  The flat-frame sweep must evaluate the same float32
operations in the same order, so ``tests/compute/test_hotspot_kernel``
requires its results to be bit-identical to these
(:func:`assert_bits_equal`, which the HotSpot app tests use too).
"""

from __future__ import annotations

import numpy as np


def step(temp, power, params):
    """One Euler step, the borders replicating the edges."""
    rows, cols = temp.shape
    padded = np.empty((rows + 2, cols + 2), dtype=temp.dtype)
    padded[1:-1, 1:-1] = temp
    (padded[0, 1:-1], padded[-1, 1:-1],
     padded[1:-1, 0], padded[1:-1, -1]) = (temp[0], temp[-1],
                                            temp[:, 0], temp[:, -1])
    north, south = padded[0:-2, 1:-1], padded[2:, 1:-1]
    west, east = padded[1:-1, 0:-2], padded[1:-1, 2:]
    delta = params.step_div_cap * (
        power
        + (north + south - 2.0 * temp) * params.ry_inv
        + (east + west - 2.0 * temp) * params.rx_inv
        + (params.amb_temp - temp) * params.rz_inv
    )
    return temp + delta


def run(temp, power, params, steps):
    """``steps`` whole-chip steps."""
    for _ in range(steps):
        temp = step(temp, power, params)
    return temp


def multistep(t_pad, p_pad, params, steps, edges):
    """Ghost-zone steps on a halo-padded block; returns the valid
    interior.  Ghost cells beyond the chip boundary (``h - d`` of them on
    a side ``d`` cells from it) are re-replicated each step."""
    cur, h = t_pad.copy(), steps
    n, s, w, e = (max(h - d, 0) for d in
                  (edges.north, edges.south, edges.west, edges.east))
    for _ in range(steps):
        if n:
            cur[:n, :] = cur[n, :]
        if s:
            cur[-s:, :] = cur[-s - 1, :]
        if w:
            cur[:, :w] = cur[:, w][:, None]
        if e:
            cur[:, -e:] = cur[:, -e - 1][:, None]
        cur = step(cur, p_pad, params)
    return cur[h:-h, h:-h]


def assert_bits_equal(got, want):
    """Bit-identity, not closeness: equal float32 bit patterns."""
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
