"""Capacity-driven problem decomposition.

Section III-C: "the number of chunks depends on the current available
capacity of level i+1 and size of the data structure."  This module is
that arithmetic: 1-D and 2-D chunk grids, the ``index()`` offset helper
of Listing 3, and chunk-size choosers that fit a working set into a
memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigError


def ceil_div(a: int, b: int) -> int:
    if b <= 0:
        raise ConfigError(f"divisor must be positive, got {b}")
    return -(-a // b)


@dataclass(frozen=True)
class Range1D:
    """A half-open element range ``[start, stop)``."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


def split_even(total: int, parts: int) -> list[Range1D]:
    """Split ``total`` elements into ``parts`` near-equal ranges.

    The first ``total % parts`` ranges get one extra element; every
    element lands in exactly one range.
    """
    if total < 0:
        raise ConfigError(f"total must be >= 0, got {total}")
    if parts < 1:
        raise ConfigError(f"parts must be >= 1, got {parts}")
    base, extra = divmod(total, parts)
    out: list[Range1D] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(Range1D(index=i, start=start, stop=start + size))
        start += size
    return out


def split_by_chunk(total: int, chunk: int) -> list[Range1D]:
    """Split ``total`` elements into ranges of at most ``chunk``."""
    if total < 0:
        raise ConfigError(f"total must be >= 0, got {total}")
    if chunk < 1:
        raise ConfigError(f"chunk must be >= 1, got {chunk}")
    return [Range1D(index=i, start=s, stop=min(s + chunk, total))
            for i, s in enumerate(range(0, total, chunk))]


@dataclass(frozen=True)
class Tile2D:
    """One chunk of a 2-D decomposition (Listing 2/3's ``(m, n)``)."""

    m: int
    n: int
    row0: int
    row1: int
    col0: int
    col1: int

    @property
    def rows(self) -> int:
        return self.row1 - self.row0

    @property
    def cols(self) -> int:
        return self.col1 - self.col0

    @property
    def size(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class Grid2D:
    """A 2-D chunk grid over a ``(nrows, ncols)`` array.

    ``get_x()`` / ``get_y()`` of Listing 3 are :attr:`tiles_m` /
    :attr:`tiles_n`; :meth:`index` is the flat chunk index used to
    locate the chunk's data.
    """

    nrows: int
    ncols: int
    chunk_rows: int
    chunk_cols: int

    def __post_init__(self) -> None:
        if self.nrows < 1 or self.ncols < 1:
            raise ConfigError(f"grid must be at least 1x1, got "
                              f"{self.nrows}x{self.ncols}")
        if self.chunk_rows < 1 or self.chunk_cols < 1:
            raise ConfigError(f"chunks must be at least 1x1, got "
                              f"{self.chunk_rows}x{self.chunk_cols}")

    @property
    def tiles_m(self) -> int:
        return ceil_div(self.nrows, self.chunk_rows)

    @property
    def tiles_n(self) -> int:
        return ceil_div(self.ncols, self.chunk_cols)

    @property
    def num_tiles(self) -> int:
        return self.tiles_m * self.tiles_n

    def index(self, m: int, n: int) -> int:
        """Flat chunk index (Listing 3's ``index(m, n)``)."""
        if not (0 <= m < self.tiles_m and 0 <= n < self.tiles_n):
            raise ConfigError(f"tile ({m}, {n}) outside "
                              f"{self.tiles_m}x{self.tiles_n} grid")
        return m * self.tiles_n + n

    def tile(self, m: int, n: int) -> Tile2D:
        if not (0 <= m < self.tiles_m and 0 <= n < self.tiles_n):
            raise ConfigError(f"tile ({m}, {n}) outside "
                              f"{self.tiles_m}x{self.tiles_n} grid")
        return Tile2D(m=m, n=n,
                      row0=m * self.chunk_rows,
                      row1=min((m + 1) * self.chunk_rows, self.nrows),
                      col0=n * self.chunk_cols,
                      col1=min((n + 1) * self.chunk_cols, self.ncols))

    def tiles(self) -> Iterator[Tile2D]:
        """Row-major iteration over every tile."""
        for m in range(self.tiles_m):
            for n in range(self.tiles_n):
                yield self.tile(m, n)


def window2d(row0: int, rows: int, col0: int, cols: int, parent_cols: int,
             elem_size: int) -> tuple[int, int, int, int]:
    """``(offset, rows, row_bytes, stride)`` of a 2-D sub-window of a
    row-major parent array.

    One helper for both a tile's ``move_2d`` arguments and its cache
    :class:`~repro.cache.spec.FetchSpec`, so demand moves, prefetch
    hints and explicit fetches all name the same bytes identically --
    the cache keys on exactly this tuple.
    """
    if rows < 1 or cols < 1 or cols > parent_cols:
        raise ConfigError(
            f"bad window: rows={rows} cols={cols} parent_cols={parent_cols}")
    if row0 < 0 or col0 < 0 or col0 + cols > parent_cols:
        raise ConfigError(
            f"window origin ({row0}, {col0}) x {cols} cols escapes a "
            f"{parent_cols}-column parent")
    return ((row0 * parent_cols + col0) * elem_size, rows, cols * elem_size,
            parent_cols * elem_size)


def fit_square_tiles(nrows: int, ncols: int, elem_size: int,
                     budget_bytes: int, *, arrays: int = 1,
                     align: int = 1) -> Grid2D:
    """Choose the largest square-ish chunk whose working set fits.

    ``arrays`` counts how many same-shaped arrays must be resident per
    chunk (HotSpot keeps input + output = 2); ``align`` rounds the chunk
    edge down to a multiple (GPU workgroup granularity).

    Raises :class:`ConfigError` when even a 1x1 chunk cannot fit.
    """
    if budget_bytes < arrays * elem_size:
        raise ConfigError(
            f"budget of {budget_bytes} bytes cannot hold even one element "
            f"of {arrays} array(s)")
    edge = min(nrows, ncols)
    while edge > 1:
        if arrays * edge * edge * elem_size <= budget_bytes:
            break
        edge -= 1
    if align > 1 and edge > align:
        edge -= edge % align
    return Grid2D(nrows=nrows, ncols=ncols, chunk_rows=edge, chunk_cols=edge)


def fit_row_chunks(nrows: int, row_bytes: int, budget_bytes: int, *,
                   copies: int = 1) -> list[Range1D]:
    """Split rows so ``copies`` resident chunks fit in the budget."""
    if row_bytes < 1 or copies < 1:
        raise ConfigError("row_bytes and copies must be >= 1")
    per_chunk = budget_bytes // copies
    rows_per_chunk = per_chunk // row_bytes
    if rows_per_chunk < 1:
        raise ConfigError(
            f"budget of {budget_bytes} bytes cannot hold one row of "
            f"{row_bytes} bytes x {copies} copies")
    return split_by_chunk(nrows, int(rows_per_chunk))


def split_rows_by_nnz(row_ptr, budget_nnz: int) -> list[Range1D]:
    """Split CSR rows into shards of at most ``budget_nnz`` non-zeros.

    This is the paper's nnz-aware SpMV sharding (Section IV-C): "if the
    nnz of a shard is too large to fit in the next-level memory, it can
    be further broken into smaller shards."  A single row with more than
    ``budget_nnz`` non-zeros becomes its own shard (it cannot be split
    in the row dimension).

    One binary search of ``row_ptr`` per shard; the per-row loop is the
    oracle in ``tests/reference/naive_rows.py``.
    """
    if budget_nnz < 1:
        raise ConfigError(f"budget_nnz must be >= 1, got {budget_nnz}")
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    if np.any(np.diff(row_ptr) < 0):
        raise ConfigError("row_ptr must be non-decreasing")
    nrows = len(row_ptr) - 1
    out: list[Range1D] = []
    start = 0
    while start < nrows:
        # The last row that ends within budget (trailing empty rows
        # ride along); an over-budget first row goes alone.
        within = min(int(row_ptr[start]) + budget_nnz, int(row_ptr[-1]))
        end = max(start + 1, int(row_ptr.searchsorted(within, "right")) - 1)
        out.append(Range1D(index=len(out), start=start, stop=end))
        start = end
    return out
