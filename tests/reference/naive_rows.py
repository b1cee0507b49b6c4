"""The per-row scans, retained for equivalence testing.

:func:`naive_split_rows_by_nnz` and :func:`naive_bin_rows` are the
original greedy loops of ``repro.core.decomposition.split_rows_by_nnz``
and ``repro.compute.kernels.spmv.bin_rows`` -- two NumPy scalar reads
per row -- moved here verbatim when both became one binary search of
``row_ptr`` per shard / block.  The hypothesis twins in
``tests/core/test_decomposition.py`` and
``tests/compute/test_spmv_kernel.py`` assert the new functions return
the very same lists.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.compute.kernels.spmv import BinKind, RowBlock
from repro.core.decomposition import Range1D
from repro.errors import ConfigError, KernelError

#: What both twins draw from: per-row nnz lists with the shapes the
#: greedy rule special-cases (runs of empty rows, rows above any small
#: budget, no rows at all), budgets from 1 to "everything fits" (past
#: int64), and the three input types callers pass.
ROW_NNZS = st.lists(st.one_of(st.just(0), st.integers(0, 6),
                              st.integers(0, 300)), min_size=0, max_size=80)
BUDGETS = st.one_of(st.just(1), st.integers(1, 400), st.just(2**70))
INPUT_KINDS = st.sampled_from(["list", "int32", "int64"])


def row_ptr_as(row_nnzs: list[int], kind: str):
    """``row_ptr`` of ``row_nnzs`` as a list or an array of ``kind``."""
    row_ptr = np.concatenate([[0], np.cumsum(row_nnzs)]).astype(np.int64)
    return row_ptr.tolist() if kind == "list" else row_ptr.astype(kind)


def naive_split_rows_by_nnz(row_ptr, budget_nnz: int) -> list[Range1D]:
    if budget_nnz < 1:
        raise ConfigError(f"budget_nnz must be >= 1, got {budget_nnz}")
    nrows = len(row_ptr) - 1
    out: list[Range1D] = []
    start = 0
    while start < nrows:
        end = start + 1
        nnz = int(row_ptr[end] - row_ptr[start])
        while end < nrows:
            nxt = int(row_ptr[end + 1] - row_ptr[end])
            if nnz + nxt > budget_nnz:
                break
            nnz += nxt
            end += 1
        out.append(Range1D(index=len(out), start=start, stop=end))
        start = end
    return out


def naive_bin_rows(row_ptr: np.ndarray, block_nnz: int) -> list[RowBlock]:
    if block_nnz < 1:
        raise KernelError(f"block_nnz must be >= 1, got {block_nnz}")
    row_ptr = np.asarray(row_ptr)
    nrows = row_ptr.size - 1
    blocks: list[RowBlock] = []
    start = 0
    while start < nrows:
        first_nnz = int(row_ptr[start + 1] - row_ptr[start])
        if first_nnz > block_nnz:
            blocks.append(RowBlock(start=start, end=start + 1,
                                   kind=BinKind.VECTOR, nnz=first_nnz))
            start += 1
            continue
        end = start + 1
        acc = first_nnz
        while end < nrows:
            nxt = int(row_ptr[end + 1] - row_ptr[end])
            if nxt > block_nnz or acc + nxt > block_nnz:
                break
            acc += nxt
            end += 1
        blocks.append(RowBlock(start=start, end=end, kind=BinKind.STREAM,
                               nnz=acc))
        start = end
    return blocks
