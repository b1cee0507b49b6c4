"""Unit and property tests for the GEMM kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute.kernels.gemm import (GEMM_EFFICIENCY, MACRO_REUSE,
                                        gemm_block, gemm_cost)
from repro.errors import KernelError


def rand(m, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)).astype(np.float32)


def test_gemm_matches_numpy():
    a, b = rand(17, 23, 0), rand(23, 11, 1)
    c = np.zeros((17, 11), dtype=np.float32)
    gemm_block(a, b, c)
    np.testing.assert_allclose(c, a @ b, rtol=1e-5)


def test_gemm_into_output():
    """C is an inout operand: the product adds to its prior contents."""
    a, b = rand(8, 8, 0), rand(8, 8, 1)
    out = np.ones((8, 8), dtype=np.float32)
    gemm_block(a, b, out)
    np.testing.assert_allclose(out, 1.0 + a @ b, rtol=1e-5, atol=1e-6)


def test_gemm_accumulate_partial_sums():
    # Figure 3's block dot product: split k, accumulate partials.
    a, b = rand(12, 20, 0), rand(20, 9, 1)
    out = np.zeros((12, 9), dtype=np.float32)
    gemm_block(a[:, :10], b[:10], out)
    gemm_block(a[:, 10:], b[10:], out)
    np.testing.assert_allclose(out, a @ b, rtol=1e-4, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 40), k=st.integers(1, 40), n=st.integers(1, 40),
       tm=st.integers(1, 17), tn=st.integers(1, 17), tk=st.integers(1, 17),
       seed=st.integers(0, 2**16))
def test_tiled_gemm_matches_reference(m, k, n, tm, tn, tk, seed):
    """Blocking with any (even non-dividing) tile sizes is exact: the
    m/n/k tile loops the out-of-core app runs across memory levels,
    one :func:`gemm_block` per (i, j, l) tile."""
    a, b = rand(m, k, seed), rand(k, n, seed + 1)
    out = np.zeros((m, n), dtype=np.float32)
    for i0 in range(0, m, tm):
        for j0 in range(0, n, tn):
            for l0 in range(0, k, tk):
                gemm_block(a[i0:i0 + tm, l0:l0 + tk],
                           b[l0:l0 + tk, j0:j0 + tn],
                           out[i0:i0 + tm, j0:j0 + tn])
    np.testing.assert_allclose(out, a @ b, rtol=1e-4, atol=1e-5)


def test_gemm_cost_flops_and_traffic():
    c = gemm_cost(64, 32, 16)
    assert c.flops == 2 * 64 * 32 * 16
    assert c.bytes_read == pytest.approx(2 * 64 * 16 * 32 / MACRO_REUSE * 4)
    assert c.bytes_written == 64 * 16 * 4
    assert c.efficiency == GEMM_EFFICIENCY


def test_gemm_cost_is_compute_bound_on_apu():
    """The paper's premise: tiled GEMM hides memory behind flops."""
    from repro.compute.gpu import make_gpu_apu
    gpu = make_gpu_apu()
    c = gemm_cost(1024, 1024, 1024)
    compute_t = c.flops / (gpu.peak_gflops * 1e9 * c.efficiency)
    memory_t = c.bytes_total / (gpu.mem_bw * c.bw_efficiency)
    assert compute_t > memory_t


def test_gemm_cost_validation():
    with pytest.raises(KernelError):
        gemm_cost(0, 1, 1)
