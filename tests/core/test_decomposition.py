"""Unit and property tests for decomposition math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import (Grid2D, ceil_div, fit_row_chunks,
                                      fit_square_tiles, split_by_chunk,
                                      split_even, split_rows_by_nnz)
from repro.errors import ConfigError
from tests.reference import naive_rows


def test_ceil_div():
    assert ceil_div(10, 3) == 4
    assert ceil_div(9, 3) == 3
    assert ceil_div(0, 5) == 0
    with pytest.raises(ConfigError):
        ceil_div(1, 0)


@settings(max_examples=100, deadline=None)
@given(total=st.integers(0, 10_000), parts=st.integers(1, 64))
def test_split_even_partitions(total, parts):
    ranges = split_even(total, parts)
    assert len(ranges) == parts
    assert ranges[0].start == 0 and ranges[-1].stop == total
    for a, b in zip(ranges, ranges[1:]):
        assert a.stop == b.start
    sizes = [r.size for r in ranges]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == total


@settings(max_examples=100, deadline=None)
@given(total=st.integers(0, 10_000), chunk=st.integers(1, 500))
def test_split_by_chunk_partitions(total, chunk):
    ranges = split_by_chunk(total, chunk)
    assert sum(r.size for r in ranges) == total
    assert all(0 < r.size <= chunk for r in ranges)
    for a, b in zip(ranges, ranges[1:]):
        assert a.stop == b.start


def test_split_validation():
    with pytest.raises(ConfigError):
        split_even(-1, 2)
    with pytest.raises(ConfigError):
        split_even(5, 0)
    with pytest.raises(ConfigError):
        split_by_chunk(5, 0)


def test_grid2d_tile_shapes():
    g = Grid2D(nrows=10, ncols=7, chunk_rows=4, chunk_cols=3)
    assert g.tiles_m == 3 and g.tiles_n == 3
    assert g.num_tiles == 9
    last = g.tile(2, 2)
    assert (last.rows, last.cols) == (2, 1)  # ragged edges
    assert g.tile(0, 0).size == 12


def test_grid2d_index_matches_listing3():
    g = Grid2D(nrows=8, ncols=8, chunk_rows=4, chunk_cols=4)
    # index(m, n) = m * get_y() + n, the classic flattening.
    assert g.index(0, 0) == 0
    assert g.index(1, 0) == 2
    assert g.index(1, 1) == 3
    with pytest.raises(ConfigError):
        g.index(2, 0)
    with pytest.raises(ConfigError):
        g.tile(0, 5)


@settings(max_examples=60, deadline=None)
@given(nrows=st.integers(1, 100), ncols=st.integers(1, 100),
       cr=st.integers(1, 40), cc=st.integers(1, 40))
def test_grid2d_tiles_cover_exactly(nrows, ncols, cr, cc):
    g = Grid2D(nrows=nrows, ncols=ncols, chunk_rows=cr, chunk_cols=cc)
    covered = np.zeros((nrows, ncols), dtype=int)
    for t in g.tiles():
        covered[t.row0:t.row1, t.col0:t.col1] += 1
    assert (covered == 1).all()


def test_grid2d_validation():
    with pytest.raises(ConfigError):
        Grid2D(nrows=0, ncols=1, chunk_rows=1, chunk_cols=1)
    with pytest.raises(ConfigError):
        Grid2D(nrows=1, ncols=1, chunk_rows=0, chunk_cols=1)


def test_fit_square_tiles_respects_budget():
    # 2 arrays of float32, budget for a 16x16 working set.
    g = fit_square_tiles(100, 100, elem_size=4, budget_bytes=2 * 16 * 16 * 4,
                         arrays=2)
    assert g.chunk_rows == g.chunk_cols == 16
    assert 2 * g.chunk_rows * g.chunk_cols * 4 <= 2 * 16 * 16 * 4


def test_fit_square_tiles_alignment():
    g = fit_square_tiles(1000, 1000, elem_size=4,
                         budget_bytes=2 * 100 * 100 * 4, arrays=2, align=16)
    assert g.chunk_rows % 16 == 0
    assert g.chunk_rows == 96


def test_fit_square_tiles_whole_grid_fits():
    g = fit_square_tiles(8, 8, elem_size=4, budget_bytes=10**9)
    assert g.chunk_rows == 8 and g.num_tiles == 1


def test_fit_square_tiles_impossible():
    with pytest.raises(ConfigError):
        fit_square_tiles(8, 8, elem_size=4, budget_bytes=3, arrays=1)


def test_fit_row_chunks():
    ranges = fit_row_chunks(nrows=100, row_bytes=1000,
                            budget_bytes=25_000, copies=2)
    # 12 rows per chunk (25000/2/1000).
    assert all(r.size <= 12 for r in ranges)
    assert sum(r.size for r in ranges) == 100
    with pytest.raises(ConfigError):
        fit_row_chunks(nrows=10, row_bytes=1000, budget_bytes=500)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=80),
       st.integers(1, 120))
def test_split_rows_by_nnz_partitions(row_nnzs, budget):
    row_ptr = np.concatenate([[0], np.cumsum(row_nnzs)])
    shards = split_rows_by_nnz(row_ptr, budget)
    assert shards[0].start == 0 and shards[-1].stop == len(row_nnzs)
    for a, b in zip(shards, shards[1:]):
        assert a.stop == b.start
    for s in shards:
        nnz = int(row_ptr[s.stop] - row_ptr[s.start])
        # Either within budget, or a single unsplittable long row.
        assert nnz <= budget or s.size == 1


def test_split_rows_by_nnz_balances_skew():
    # One huge row among tiny ones becomes its own shard.
    row_ptr = np.array([0, 1, 2, 1002, 1003, 1004])
    shards = split_rows_by_nnz(row_ptr, 100)
    sizes = [(s.start, s.stop) for s in shards]
    assert (2, 3) in sizes  # the 1000-nnz row isolated
    with pytest.raises(ConfigError):
        split_rows_by_nnz(row_ptr, 0)


@settings(max_examples=200, deadline=None)
@given(naive_rows.ROW_NNZS, naive_rows.BUDGETS, naive_rows.INPUT_KINDS)
def test_split_rows_by_nnz_matches_the_per_row_loop(row_nnzs, budget, kind):
    arg = naive_rows.row_ptr_as(row_nnzs, kind)
    assert split_rows_by_nnz(arg, budget) == \
        naive_rows.naive_split_rows_by_nnz(arg, budget)


def test_split_rows_by_nnz_edge_shapes():
    naive_split_rows_by_nnz = naive_rows.naive_split_rows_by_nnz
    assert split_rows_by_nnz([0], 5) == []                    # no rows
    assert split_rows_by_nnz([], 5) == []
    for row_ptr in ([0, 0, 0, 0],                             # all empty
                    [0, 9, 9, 9, 10],       # over budget, then empty rows
                    [0, 0, 3, 3, 6, 6]):    # trailing empties absorbed
        for budget in (1, 3, 6, 100):
            assert split_rows_by_nnz(row_ptr, budget) == \
                naive_split_rows_by_nnz(row_ptr, budget)


def test_split_rows_by_nnz_rejects_decreasing_row_ptr():
    with pytest.raises(ConfigError, match="non-decreasing"):
        split_rows_by_nnz([0, 5, 3, 8], 4)
