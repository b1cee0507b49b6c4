"""Out-of-core dense matrix multiply (paper Section IV-A).

``C = A B`` with the operands resident at the tree root (file storage in
the evaluated systems).  Each recursion level tiles its local problem
``C_l += A_l B_l`` into ``(tm x tk) @ (tk x tn)`` blocks sized by the
*child* node's free capacity, moves row/column shards down, recurses,
and copies result blocks back up -- Listing 3 over Figure 3.

Two paper optimisations are implemented and individually switchable
(the ablation benches exercise them):

* **row-shard reuse** ("the row shard m can stay in the l+1 level and
  the program just iteratively loads column shards"): A tiles are
  ``cached`` windows, leased through the child node's buffer cache
  (:meth:`repro.core.system.System.fetch_down`), so the tiles of the
  current row strip hit across the j loop;
* **pipelining**: B tiles are a ring window of depth
  ``pipeline_depth``, so the next column shard's load overlaps the
  current kernel.  Chunks themselves stay serial (the default
  ``pipeline_window`` of 1): the C block carries across the k loop.

Accumulation across the k loop happens where the paper puts it: every
k step of an output block declares the same C window on the same
child, so the block stays resident while partial products accumulate
into it (the plan neither moves it up nor releases it in between).
When the incoming problem itself carries prior partials (``acc``), C
is an ``update`` window and is first filled by moving the parent's
current region down.  Up-moves are therefore always plain copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.compute.kernels.gemm import gemm_block, gemm_cost
from repro.compute.processor import ProcessorKind
from repro.core.buffers import BufferHandle
from repro.core.context import ExecutionContext
from repro.core.decomposition import ceil_div, window2d
from repro.core.program import (CACHED, READ, UPDATE, WRITE, NorthupProgram,
                                Window)
from repro.core.system import System
from repro.errors import CapacityError, ConfigError
from repro.exec import Binding, kernel_spec
from repro.topology.node import TreeNode
from repro.workloads.matrices import (load_bands, random_dense,
                                      random_dense_bands)

#: Fraction of a child node's capacity the decomposition may plan for;
#: the rest covers alignment padding and transient allocations.
CAPACITY_SAFETY = 0.9
TILE_ALIGN = 8  # tile edges from 8 up round down to a multiple of it


@dataclass(frozen=True)
class GemmTiles:
    """Chosen tile shape for one level."""

    tm: int
    tn: int
    tk: int


def _reuse_cost(s: int, k: int, depth: int) -> int:
    """Resident elements with row-shard reuse and tk = k."""
    return s * k + depth * k * s + depth * s * s


def _noreuse_cost(s: int, tk: int, depth: int) -> int:
    """Resident elements without reuse (A and B both streamed)."""
    return depth * (s * tk + tk * s) + depth * s * s


def _max_s(cost_fn, budget: int, hi: int) -> int:
    """Largest ``s`` in [1, hi] with cost_fn(s) <= budget (0 if none)."""
    if cost_fn(1) > budget:
        return 0
    lo, best = 1, 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if cost_fn(mid) <= budget:
            best, lo = mid, mid + 1
        else:
            hi = mid - 1
    return best


def choose_gemm_tiles(m: int, k: int, n: int, *, elem_size: int,
                      budget_bytes: int, depth: int = 2) -> GemmTiles:
    """Pick the largest square output tile the child budget allows.

    With reuse the plan holds a full ``tm x k`` row strip of A plus
    ``depth`` B-tile and C-block sets; without it, ``depth`` sets of all
    three.  ``tk = k`` is preferred (no k loop -> single plain copy up);
    when the budget cannot host full-k strips, ``tk`` halves until a
    plan fits.
    """
    if min(m, k, n) < 1:
        raise ConfigError(f"gemm dims must be >= 1, got {(m, k, n)}")
    if depth < 1:
        raise ConfigError(f"pipeline depth must be >= 1, got {depth}")
    budget = int(budget_bytes) // elem_size
    smax = min(m, n)

    def aligned(s: int) -> int:
        if s >= TILE_ALIGN:
            s -= s % TILE_ALIGN
        return s

    s = _max_s(lambda s: _reuse_cost(s, k, depth), budget, smax)
    if s >= TILE_ALIGN or s == smax:
        s = aligned(s) or s
        return GemmTiles(tm=s, tn=s, tk=k)

    # No (worthwhile) full-k reuse plan: split k.  Traffic is independent
    # of tk, so maximise the output tile s; among near-best s prefer the
    # largest tk (fewer, bigger transfers).
    best: GemmTiles | None = None
    best_s = 0
    tk = k
    while tk >= 1:
        s = _max_s(lambda s: _noreuse_cost(s, tk, depth), budget, smax)
        if s > best_s:
            best_s = s
            best = GemmTiles(tm=s, tn=s, tk=tk)
        if tk == 1:
            break
        tk //= 2
    if best is None:
        raise CapacityError(
            f"no GEMM tiling fits a budget of {budget_bytes} bytes for "
            f"problem {(m, k, n)}")
    # Walk tk back up while s stays within 10% of the best.
    tk = best.tk
    while tk * 2 <= k:
        s = _max_s(lambda s: _noreuse_cost(s, tk * 2, depth), budget, smax)
        if s < 0.9 * best_s:
            break
        tk *= 2
        best = GemmTiles(tm=s, tn=s, tk=tk)
    s = aligned(best.tm) or best.tm
    return GemmTiles(tm=s, tn=s, tk=best.tk)


@dataclass
class GemmLevel:
    """Per-level problem state: local operands and their logical shape.

    ``acc`` marks that ``c`` already holds partial sums from an earlier
    k-iteration of the level above.
    """

    a: BufferHandle
    b: BufferHandle
    c: BufferHandle
    m: int
    k: int
    n: int
    acc: bool = False


@dataclass(frozen=True)
class GemmChunk:
    """One (i, j, p) tile of a level's loop nest."""

    i: int
    j: int
    p: int
    row0: int
    rows: int
    col0: int
    cols: int
    k0: int
    kk: int


class GemmApp(NorthupProgram):
    """Northup out-of-core GEMM.

    Parameters
    ----------
    m, k, n:
        Problem shape: ``C (m x n) = A (m x k) @ B (k x n)``.
    seed:
        Workload seed for the operand matrices.
    pipeline_depth:
        Buffer sets for streamed tiles (1 disables the overlap).
    force_tiles:
        Fixed tile shape (clipped to the problem) instead of the
        largest that fits; tiles prefer the Section IV-A full-k row
        strip.  Whether repeated A windows actually hit is decided by
        the system's cache config (``CacheConfig.disabled()`` recovers
        the no-reuse behaviour for the ablation).
    """

    root_buffers = ("a_root", "b_root", "c_root")

    def __init__(self, system: System, *, m: int, k: int, n: int,
                 seed: int = 0, pipeline_depth: int = 2,
                 force_tiles: GemmTiles | None = None) -> None:
        if min(m, k, n) < 1:
            raise ConfigError(f"gemm dims must be >= 1, got {(m, k, n)}")
        self.system = system
        self.m, self.k, self.n = m, k, n
        self.elem = 4
        self.pipeline_depth = pipeline_depth
        self.force_tiles = force_tiles
        self.seed = seed
        # Born on the root: the operands stream in band by band.
        root = system.tree.root
        self.a_root = system.alloc(m * k * self.elem, root, label="A")
        self.b_root = system.alloc(k * n * self.elem, root, label="B")
        self.c_root = system.alloc(m * n * self.elem, root, label="C")
        load_bands(system, self.a_root, random_dense_bands(m, k, seed=seed))
        load_bands(system, self.b_root,
                   random_dense_bands(k, n, seed=seed + 1))

    # -- template hooks -------------------------------------------------

    def before_run(self, ctx: ExecutionContext) -> None:
        ctx.payload = GemmLevel(a=self.a_root, b=self.b_root, c=self.c_root,
                                m=self.m, k=self.k, n=self.n, acc=False)

    def decompose(self, ctx: ExecutionContext) -> Iterable[GemmChunk]:
        lv: GemmLevel = ctx.payload
        # Chunks may spread over every child; tiles must fit the
        # tightest of them.  Plan against free-plus-reclaimable so cache
        # residency never shrinks the tiles (repeat runs pick the same
        # tiles and therefore hit).
        budget = int(min(ctx.system.free_for_planning(c)
                         for c in ctx.node.children) * CAPACITY_SAFETY)
        if self.force_tiles is not None:
            tiles = GemmTiles(tm=min(self.force_tiles.tm, lv.m),
                              tn=min(self.force_tiles.tn, lv.n),
                              tk=min(self.force_tiles.tk, lv.k))
        else:
            tiles = choose_gemm_tiles(lv.m, lv.k, lv.n, elem_size=self.elem,
                                      budget_bytes=budget,
                                      depth=self.pipeline_depth)
        tiles_m = ceil_div(lv.m, tiles.tm)
        tiles_n = ceil_div(lv.n, tiles.tn)
        tiles_k = ceil_div(lv.k, tiles.tk)
        ctx.scratch["tiles_n"] = tiles_n
        for i in range(tiles_m):
            row0 = i * tiles.tm
            rows = min(tiles.tm, lv.m - row0)
            for j in range(tiles_n):
                col0 = j * tiles.tn
                cols = min(tiles.tn, lv.n - col0)
                for p in range(tiles_k):
                    k0 = p * tiles.tk
                    kk = min(tiles.tk, lv.k - k0)
                    yield GemmChunk(i=i, j=j, p=p, row0=row0, rows=rows,
                                    col0=col0, cols=cols, k0=k0, kk=kk)

    def select_child(self, ctx: ExecutionContext,
                     chunk: GemmChunk) -> TreeNode:
        """Spread output blocks round-robin over sibling subtrees
        (Section III-C's multiple-tree-branch spawning).  All k-steps of
        one (i, j) block stay on one child: its C block accumulates
        there."""
        children = ctx.node.children
        return children[(chunk.i * ctx.scratch["tiles_n"] + chunk.j)
                        % len(children)]

    def access(self, ctx: ExecutionContext,
               chunk: GemmChunk) -> list[Window]:
        """A through the child's cache, B through a ring, and the C
        block, which every k step of the block declares again (so it
        stays resident across the k loop) and which is filled from the
        parent first when the level above accumulates."""
        lv: GemmLevel = ctx.payload
        elem = self.elem
        return [
            Window("A", lv.a, *window2d(chunk.row0, chunk.rows, chunk.k0,
                                        chunk.kk, lv.k, elem), CACHED),
            Window("B", lv.b, *window2d(chunk.k0, chunk.kk, chunk.col0,
                                        chunk.cols, lv.n, elem),
                   READ, self.pipeline_depth),
            Window("C", lv.c, *window2d(chunk.row0, chunk.rows, chunk.col0,
                                        chunk.cols, lv.n, elem),
                   UPDATE if lv.acc else WRITE)]

    def child_problem(self, ctx: ExecutionContext, chunk: GemmChunk,
                      bufs: dict) -> GemmLevel:
        return GemmLevel(a=bufs["A"], b=bufs["B"], c=bufs["C"],
                         m=chunk.rows, k=chunk.kk, n=chunk.cols,
                         acc=chunk.p > 0 or ctx.payload.acc)

    def compute_task(self, ctx: ExecutionContext) -> None:
        lv: GemmLevel = ctx.payload
        sys_ = ctx.system
        gpu = ctx.get_device(ProcessorKind.GPU)

        # The kernel is a picklable spec over buffer bindings, so any
        # compute backend (inline, shm or dist pool) can run it; C is
        # an ``update`` binding because the block accumulates into it.
        label = f"gemm {lv.m}x{lv.k}x{lv.n}"
        sys_.launch(gpu, gemm_cost(lv.m, lv.k, lv.n),
                    reads=(lv.a, lv.b), writes=(lv.c,),
                    kernel=kernel_spec(
                        gemm_block,
                        Binding.read("a", lv.a, np.float32, (lv.m, lv.k)),
                        Binding.read("b", lv.b, np.float32, (lv.k, lv.n)),
                        Binding.update("c", lv.c, np.float32, (lv.m, lv.n)),
                        label=label),
                    label=label)

    # -- results ---------------------------------------------------------

    def result(self) -> np.ndarray:
        """Fetch the product matrix C from the tree root."""
        return self.system.fetch(self.c_root, np.float32,
                                 shape=(self.m, self.n))

    def reference(self) -> np.ndarray:
        """The host reference; the operands are drawn again from the seed."""
        return (random_dense(self.m, self.k, seed=self.seed)
                @ random_dense(self.k, self.n, seed=self.seed + 1))
