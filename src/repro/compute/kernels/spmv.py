"""CSR-Adaptive sparse matrix-vector multiply (paper Section IV-C).

The paper's leaf kernel is CSR-Adaptive (Greathouse & Daga, SC'14): the
CPU pre-bins consecutive rows into blocks by non-zero count, then the GPU
runs CSR-Stream on short-row blocks (whole block staged through local
memory, one workgroup per block) and CSR-Vector on long rows (one
workgroup strides one row).  Both the binning pass (which shows up as
CPU time in Figure 7) and the per-bin execution structure are
reproduced here; the arithmetic is exact, so the adaptive path is tested
to match a plain CSR SpMV and ``scipy.sparse``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.compute.processor import KernelCost
from repro.errors import KernelError

#: Non-zeros a workgroup can stage in local memory (the CSR-Adaptive
#: paper uses its local-memory capacity; 1024 4-byte values fits a 64 KiB
#: LDS comfortably alongside the row buffer).
DEFAULT_BLOCK_NNZ = 1024


@dataclass
class CSRMatrix:
    """A sparse matrix in compressed-sparse-row form.

    The three compact vectors are exactly the paper's decomposition
    targets: sharding splits ``row_ptr`` ranges and carries the matching
    ``col_id``/``data`` slices.
    """

    row_ptr: np.ndarray  # int64, len rows+1
    col_id: np.ndarray   # int32, len nnz
    data: np.ndarray     # float32/float64, len nnz
    ncols: int

    def __post_init__(self) -> None:
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        self.col_id = np.asarray(self.col_id, dtype=np.int32)
        self.validate()

    def validate(self) -> None:
        """Check CSR structural invariants; raises KernelError."""
        if self.row_ptr.ndim != 1 or self.row_ptr.size < 1:
            raise KernelError("row_ptr must be a non-empty 1-D array")
        if self.row_ptr[0] != 0:
            raise KernelError(f"row_ptr must start at 0, got {self.row_ptr[0]}")
        if np.any(np.diff(self.row_ptr) < 0):
            raise KernelError("row_ptr must be non-decreasing")
        if self.row_ptr[-1] != self.col_id.size or self.col_id.size != self.data.size:
            raise KernelError(
                f"nnz mismatch: row_ptr says {self.row_ptr[-1]}, "
                f"col_id has {self.col_id.size}, data has {self.data.size}")
        if self.ncols < 1:
            raise KernelError(f"ncols must be >= 1, got {self.ncols}")
        if self.col_id.size and (self.col_id.min() < 0
                                 or self.col_id.max() >= self.ncols):
            raise KernelError("column index out of range")

    @property
    def nrows(self) -> int:
        return self.row_ptr.size - 1

    @property
    def nnz(self) -> int:
        return int(self.row_ptr[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row_nnz(self) -> np.ndarray:
        """Non-zeros per row."""
        return np.diff(self.row_ptr)

    def slice_rows(self, start: int, end: int) -> "CSRMatrix":
        """The shard ``[start, end)``: a self-contained CSR sub-matrix.

        This is the paper's shard extraction: the ``col_id``/``data``
        portion is located via ``row_ptr[start]`` and ``row_ptr[end]``,
        and the sliced ``row_ptr`` is rebased to zero.
        """
        if not (0 <= start <= end <= self.nrows):
            raise KernelError(f"row slice [{start}, {end}) outside 0..{self.nrows}")
        lo, hi = int(self.row_ptr[start]), int(self.row_ptr[end])
        return CSRMatrix(row_ptr=self.row_ptr[start:end + 1] - lo,
                         col_id=self.col_id[lo:hi],
                         data=self.data[lo:hi],
                         ncols=self.ncols)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build a CSR matrix from a dense array."""
        if dense.ndim != 2:
            raise KernelError("from_dense needs a 2-D array")
        rows, cols = dense.shape
        mask = dense != 0
        counts = mask.sum(axis=1)
        row_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        nz_rows, nz_cols = np.nonzero(mask)
        order = np.lexsort((nz_cols, nz_rows))
        return cls(row_ptr=row_ptr,
                   col_id=nz_cols[order].astype(np.int32),
                   data=dense[nz_rows[order], nz_cols[order]],
                   ncols=cols)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (tests only; O(rows*cols))."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        for r in range(self.nrows):
            lo, hi = self.row_ptr[r], self.row_ptr[r + 1]
            out[r, self.col_id[lo:hi]] += self.data[lo:hi]
        return out


def _spmv_rows(row_ptr: np.ndarray, col_id: np.ndarray, data: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """``A @ x`` for the rows a ``row_ptr`` window spans (it need not
    start at 0; ``col_id``/``data`` are the whole matrix's).

    Uses the prefix-sum formulation, which unlike ``np.add.reduceat``
    handles empty rows exactly.
    """
    lo, hi = row_ptr[0], row_ptr[-1]
    products = data[lo:hi] * x[col_id[lo:hi]]
    prefix = np.concatenate([[0.0], np.cumsum(products, dtype=np.float64)])
    ptr = row_ptr - lo
    y = prefix[ptr[1:]] - prefix[ptr[:-1]]
    return y.astype(np.result_type(data, x), copy=False)


def spmv(csr: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Plain CSR ``y = A @ x`` (the correctness reference)."""
    if x.shape != (csr.ncols,):
        raise KernelError(f"x must have shape ({csr.ncols},), got {x.shape}")
    return _spmv_rows(csr.row_ptr, csr.col_id, csr.data, x)


class BinKind(enum.Enum):
    """Execution strategy CSR-Adaptive assigns to a row block."""

    STREAM = "csr-stream"   # many short rows, block staged in local memory
    VECTOR = "csr-vector"   # one long row, strided by a whole workgroup


@dataclass(frozen=True)
class RowBlock:
    """A bin: rows ``[start, end)`` executed with ``kind``."""

    start: int
    end: int
    kind: BinKind
    nnz: int

    @property
    def nrows(self) -> int:
        return self.end - self.start


def bin_rows(row_ptr: np.ndarray, block_nnz: int = DEFAULT_BLOCK_NNZ) -> list[RowBlock]:
    """The CPU binning pass: greedily group consecutive rows into blocks
    of at most ``block_nnz`` non-zeros; any single row exceeding the
    budget becomes its own CSR-Vector block.

    Every row lands in exactly one block, in order -- a property test
    pins this down.  One binary search of ``row_ptr`` per block; the
    per-row loop is the oracle in ``tests/reference/naive_rows.py``.
    """
    if block_nnz < 1:
        raise KernelError(f"block_nnz must be >= 1, got {block_nnz}")
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    if np.any(np.diff(row_ptr) < 0):
        raise KernelError("row_ptr must be non-decreasing")
    nrows = row_ptr.size - 1
    blocks: list[RowBlock] = []
    start = 0
    while start < nrows:
        base = int(row_ptr[start])
        # The last row that ends within budget: `start` itself when its
        # first row alone is over.
        within = min(base + block_nnz, int(row_ptr[-1]))
        end = int(row_ptr.searchsorted(within, "right")) - 1
        kind = BinKind.STREAM if end > start else BinKind.VECTOR
        end = max(end, start + 1)
        blocks.append(RowBlock(start=start, end=end, kind=kind,
                               nnz=int(row_ptr[end]) - base))
        start = end
    return blocks


def spmv_adaptive(csr: CSRMatrix, x: np.ndarray,
                  blocks: list[RowBlock] | None = None) -> np.ndarray:
    """CSR-Adaptive execution: per-bin kernels, exact same answer as
    :func:`spmv`."""
    if x.shape != (csr.ncols,):
        raise KernelError(f"x must have shape ({csr.ncols},), got {x.shape}")
    if blocks is None:
        blocks = bin_rows(csr.row_ptr)
    row_ptr, col_id, data = csr.row_ptr, csr.col_id, csr.data
    y = np.zeros(csr.nrows, dtype=np.result_type(data, x))
    for blk in blocks:
        if blk.kind is BinKind.VECTOR:
            lo, hi = row_ptr[blk.start], row_ptr[blk.start + 1]
            # A workgroup strides the row; a tree reduction combines.
            y[blk.start] = float(data[lo:hi] @ x[col_id[lo:hi]])
        else:
            # Staged through local memory: a window of `csr`'s rows,
            # which were validated with the matrix.
            y[blk.start:blk.end] = _spmv_rows(
                row_ptr[blk.start:blk.end + 1], col_id, data, x)
    return y


def binning_cost(nrows: int) -> KernelCost:
    """CPU cost of the binning pass: one scan over ``row_ptr``.

    This is the CPU component visible in the paper's Figure 7 ("CSR-
    Adaptive uses the CPU for binning rows ... and spends relatively
    more time" on it).
    """
    if nrows < 0:
        raise KernelError(f"nrows must be >= 0, got {nrows}")
    return KernelCost(flops=6.0 * nrows,
                      bytes_read=8.0 * nrows,
                      bytes_written=16.0,
                      efficiency=0.05,       # branchy scalar scan
                      bw_efficiency=0.5)


def spmv_cost(nnz: int, nrows: int, *, dtype_size: int = 4,
              blocks: list[RowBlock] | None = None) -> KernelCost:
    """Roofline cost of one CSR-Adaptive launch.

    Traffic: ``data`` and ``col_id`` stream once; ``row_ptr`` streams
    once; the ``x`` gather and the ``y`` write round out the bytes.  The
    gather's irregularity is folded into ``bw_efficiency`` -- lower when
    more of the nnz fall in CSR-Vector bins (long scattered rows).
    """
    if nnz < 0 or nrows < 0:
        raise KernelError("nnz and nrows must be >= 0")
    vector_frac = 0.0
    if blocks:
        vec_nnz = sum(b.nnz for b in blocks if b.kind is BinKind.VECTOR)
        total = sum(b.nnz for b in blocks)
        vector_frac = vec_nnz / total if total else 0.0
    bytes_read = nnz * (dtype_size + 4) + (nrows + 1) * 8 + nnz * dtype_size
    bytes_written = nrows * dtype_size
    # bw_efficiency is calibrated to the sustained SpMV bandwidth of the
    # paper's APU GPU (~2 GB/s effective on scattered CSR gathers, ~10%
    # of the DRAM interface); CSR-Vector-heavy inputs gather worse.
    return KernelCost(flops=2.0 * nnz,
                      bytes_read=float(bytes_read),
                      bytes_written=float(bytes_written),
                      efficiency=0.35,
                      bw_efficiency=max(0.04, 0.08 - 0.04 * vector_frac))


def spmv_block(col_id: np.ndarray, data: np.ndarray, x: np.ndarray,
               y: np.ndarray, *, row_ptr: np.ndarray, ncols: int,
               blocks: list[RowBlock]) -> None:
    """Executor entry point (module-level, picklable): CSR-Adaptive
    SpMV of one row shard into ``y``.

    ``row_ptr`` and the CPU pass's row bins travel as kwargs (host-side
    metadata, not device buffers), mirroring how the launch's closure
    used them.  ``y`` may be empty (a zero-row shard) -- the copy is
    then a no-op, like the guarded ``preload`` it replaces.
    """
    csr = CSRMatrix(row_ptr=row_ptr, col_id=col_id, data=data, ncols=ncols)
    np.copyto(y, spmv_adaptive(csr, x, blocks).astype(np.float32))
