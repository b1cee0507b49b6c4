"""Unit and property tests for the CSR-Adaptive SpMV kernel."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute.kernels.spmv import (BinKind, CSRMatrix, bin_rows,
                                        binning_cost, spmv, spmv_adaptive,
                                        spmv_cost)
from repro.errors import KernelError
from tests.reference import naive_rows


def random_csr(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    m = sp.random(rows, cols, density=density, random_state=rng,
                  format="csr", dtype=np.float32)
    return CSRMatrix(row_ptr=m.indptr.astype(np.int64),
                     col_id=m.indices.astype(np.int32),
                     data=m.data, ncols=cols), m


def test_spmv_matches_scipy():
    csr, m = random_csr(100, 80, 0.05, 0)
    x = np.random.default_rng(1).standard_normal(80).astype(np.float32)
    np.testing.assert_allclose(spmv(csr, x), m @ x, rtol=1e-4, atol=1e-5)


def test_spmv_handles_empty_rows():
    # Row 1 is empty; the reduceat-style pitfall this guards against.
    csr = CSRMatrix(row_ptr=np.array([0, 2, 2, 3]),
                    col_id=np.array([0, 1, 2]),
                    data=np.array([1.0, 2.0, 3.0], dtype=np.float32),
                    ncols=3)
    y = spmv(csr, np.array([1.0, 1.0, 1.0], dtype=np.float32))
    np.testing.assert_allclose(y, [3.0, 0.0, 3.0])


def test_spmv_empty_matrix():
    csr = CSRMatrix(row_ptr=np.zeros(5, dtype=np.int64),
                    col_id=np.array([], dtype=np.int32),
                    data=np.array([], dtype=np.float32), ncols=7)
    y = spmv(csr, np.ones(7, dtype=np.float32))
    np.testing.assert_array_equal(y, np.zeros(4))


def test_spmv_x_shape_validation():
    csr, _ = random_csr(10, 10, 0.3, 0)
    with pytest.raises(KernelError):
        spmv(csr, np.ones(11, dtype=np.float32))


def test_csr_validation():
    with pytest.raises(KernelError):
        CSRMatrix(row_ptr=np.array([1, 2]), col_id=np.array([0]),
                  data=np.array([1.0]), ncols=1)  # doesn't start at 0
    with pytest.raises(KernelError):
        CSRMatrix(row_ptr=np.array([0, 2, 1]), col_id=np.array([0, 0]),
                  data=np.array([1.0, 1.0]), ncols=1)  # decreasing
    with pytest.raises(KernelError):
        CSRMatrix(row_ptr=np.array([0, 1]), col_id=np.array([5]),
                  data=np.array([1.0]), ncols=3)  # col out of range
    with pytest.raises(KernelError):
        CSRMatrix(row_ptr=np.array([0, 2]), col_id=np.array([0]),
                  data=np.array([1.0]), ncols=1)  # nnz mismatch


def test_from_dense_to_dense_roundtrip():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((9, 6)).astype(np.float32)
    dense[dense < 0.5] = 0.0
    csr = CSRMatrix.from_dense(dense)
    np.testing.assert_array_equal(csr.to_dense(), dense)
    assert csr.nnz == np.count_nonzero(dense)


def test_slice_rows_is_self_contained_shard():
    csr, m = random_csr(50, 40, 0.1, 2)
    shard = csr.slice_rows(10, 30)
    assert shard.nrows == 20
    assert shard.row_ptr[0] == 0
    x = np.random.default_rng(3).standard_normal(40).astype(np.float32)
    np.testing.assert_allclose(spmv(shard, x), (m @ x)[10:30],
                               rtol=1e-4, atol=1e-5)
    with pytest.raises(KernelError):
        csr.slice_rows(30, 10)


def test_bin_rows_short_rows_stream():
    row_ptr = np.array([0, 2, 4, 6, 8])
    blocks = bin_rows(row_ptr, block_nnz=4)
    assert [b.kind for b in blocks] == [BinKind.STREAM, BinKind.STREAM]
    assert [(b.start, b.end) for b in blocks] == [(0, 2), (2, 4)]


def test_bin_rows_long_row_becomes_vector():
    row_ptr = np.array([0, 2, 500, 502])
    blocks = bin_rows(row_ptr, block_nnz=100)
    assert [b.kind for b in blocks] == [BinKind.STREAM, BinKind.VECTOR,
                                        BinKind.STREAM]
    assert blocks[1].nnz == 498


def test_bin_rows_validation():
    with pytest.raises(KernelError):
        bin_rows(np.array([0, 1]), block_nnz=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=60),
       st.integers(1, 64))
def test_bin_rows_partition_property(row_nnzs, block_nnz):
    """Every row lands in exactly one block, order preserved, and no
    STREAM block exceeds the nnz budget."""
    row_ptr = np.concatenate([[0], np.cumsum(row_nnzs)])
    blocks = bin_rows(row_ptr, block_nnz=block_nnz)
    covered = []
    for b in blocks:
        covered.extend(range(b.start, b.end))
        if b.kind is BinKind.STREAM:
            assert b.nnz <= block_nnz
        else:
            assert b.nrows == 1 and b.nnz > block_nnz
        assert b.nnz == row_ptr[b.end] - row_ptr[b.start]
    assert covered == list(range(len(row_nnzs)))


@settings(max_examples=200, deadline=None)
@given(naive_rows.ROW_NNZS, naive_rows.BUDGETS, naive_rows.INPUT_KINDS)
def test_bin_rows_matches_the_per_row_loop(row_nnzs, block_nnz, kind):
    """Empty rows, rows above budget, budget 1, no rows, every input
    type: the very same blocks as the retained per-row scan."""
    arg = naive_rows.row_ptr_as(row_nnzs, kind)
    assert bin_rows(arg, block_nnz) == naive_rows.naive_bin_rows(arg,
                                                                 block_nnz)


def test_bin_rows_edge_shapes():
    naive_bin_rows = naive_rows.naive_bin_rows
    assert bin_rows(np.array([0]), 4) == []                   # no rows
    for row_ptr in ([0, 0, 0, 0],                             # all empty
                    [0, 9, 9, 9, 10],       # over budget, then empty rows
                    [0, 0, 9, 9],           # empty row before a long one
                    [0, 0, 3, 3, 6, 6]):    # trailing empties absorbed
        for block_nnz in (1, 3, 6, 100):
            assert bin_rows(row_ptr, block_nnz) == \
                naive_bin_rows(row_ptr, block_nnz)


def test_bin_rows_rejects_decreasing_row_ptr():
    with pytest.raises(KernelError, match="non-decreasing"):
        bin_rows(np.array([0, 5, 3, 8]), block_nnz=4)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 60), cols=st.integers(1, 40),
       density=st.floats(0.0, 0.4), block=st.integers(1, 32),
       seed=st.integers(0, 999))
def test_adaptive_stream_blocks_equal_their_sliced_spmv(rows, cols, density,
                                                        block, seed):
    """A STREAM block is computed on a window of the validated matrix;
    the bytes are those of ``spmv`` on the re-validated row slice."""
    csr, _ = random_csr(rows, cols, density, seed)
    x = np.random.default_rng(seed + 1).standard_normal(cols).astype(np.float32)
    blocks = bin_rows(csr.row_ptr, block_nnz=block)
    y = spmv_adaptive(csr, x, blocks)
    for b in blocks:
        if b.kind is BinKind.STREAM:
            assert np.array_equal(y[b.start:b.end],
                                  spmv(csr.slice_rows(b.start, b.end), x))


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 60), cols=st.integers(1, 40),
       density=st.floats(0.0, 0.4), block=st.integers(1, 32),
       seed=st.integers(0, 999))
def test_adaptive_matches_plain(rows, cols, density, block, seed):
    csr, _ = random_csr(rows, cols, density, seed)
    x = np.random.default_rng(seed + 1).standard_normal(cols).astype(np.float32)
    blocks = bin_rows(csr.row_ptr, block_nnz=block)
    np.testing.assert_allclose(spmv_adaptive(csr, x, blocks), spmv(csr, x),
                               rtol=1e-3, atol=1e-4)


def test_adaptive_default_binning():
    csr, m = random_csr(200, 150, 0.05, 9)
    x = np.random.default_rng(10).standard_normal(150).astype(np.float32)
    np.testing.assert_allclose(spmv_adaptive(csr, x), m @ x,
                               rtol=1e-4, atol=1e-5)


def test_costs():
    assert binning_cost(1000).flops == 6000
    with pytest.raises(KernelError):
        binning_cost(-1)
    blocks = [  # mostly vector -> lower bandwidth efficiency
        type(bin_rows(np.array([0, 200]), 100)[0])(0, 1, BinKind.VECTOR, 200),
    ]
    c_vec = spmv_cost(200, 1, blocks=blocks)
    c_str = spmv_cost(200, 1, blocks=None)
    assert c_vec.bw_efficiency < c_str.bw_efficiency
    assert c_str.flops == 400
    with pytest.raises(KernelError):
        spmv_cost(-1, 0)


def test_spmv_cost_bandwidth_bound_on_apu():
    from repro.compute.gpu import make_gpu_apu
    gpu = make_gpu_apu()
    c = spmv_cost(nnz=1_000_000, nrows=100_000)
    compute_t = c.flops / (gpu.peak_gflops * 1e9 * c.efficiency)
    memory_t = c.bytes_total / (gpu.mem_bw * c.bw_efficiency)
    assert memory_t > compute_t
