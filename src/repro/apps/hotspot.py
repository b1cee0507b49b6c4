"""Out-of-core HotSpot-2D thermal simulation (paper Section IV-B).

The temperature and power grids live at the tree root.  Each *pass*
streams the grid through the hierarchy in square blocks: every block is
shipped together with a halo of neighbour data, the leaf runs the
Rodinia ghost-zone ("pyramid") kernel for ``steps_per_pass`` Euler
steps, and the valid interior is written back.  Passes repeat until the
requested number of iterations is reached.

With ``steps_per_pass = 1`` this is the paper's width-1 border scheme,
with one difference in shape: the paper packs the four border vectors
into one contiguous buffer, while here the border ships inside the
padded block (one 2-D DMA per block, and one kernel,
:func:`~repro.compute.kernels.hotspot.hotspot_multistep`, for every
halo width).  Larger values amortise storage traffic over several steps
per load, which is what the Rodinia GPU kernel's pyramid height does on
chip and what the calibrated benches use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.compute.kernels.hotspot import (ChipEdges, HotspotParams,
                                           default_params, hotspot_block,
                                           hotspot_cost, hotspot_run)
from repro.compute.processor import ProcessorKind
from repro.core.buffers import BufferHandle
from repro.core.context import ExecutionContext
from repro.core.decomposition import Grid2D, window2d
from repro.core.program import READ, WRITE, NorthupProgram, Window
from repro.core.system import System
from repro.errors import CapacityError, ConfigError
from repro.exec import Binding, kernel_spec
from repro.topology.node import TreeNode
from repro.workloads import thermal
from repro.workloads.matrices import row_bands

CAPACITY_SAFETY = 0.9
TILE_ALIGN = 16  # tile edges above this round down to a multiple of it


def choose_hotspot_tile(rows: int, cols: int, *, halo: int, depth: int,
                        budget_bytes: int, elem_size: int = 4) -> int:
    """Largest square tile edge whose working set fits the child budget.

    Per buffer set: padded temp + padded power ((s+2h)^2 each) and the
    unpadded output (s^2); ``depth`` sets are resident for pipelining.
    """
    if halo < 1 or depth < 1:
        raise ConfigError("halo and depth must be >= 1")
    budget = budget_bytes // elem_size

    def cost(s: int) -> int:
        padded = (s + 2 * halo) ** 2
        return depth * (2 * padded + s * s)

    lo, hi, best = 1, min(rows, cols), 0
    while lo <= hi:
        mid = (lo + hi) // 2
        if cost(mid) <= budget:
            best, lo = mid, mid + 1
        else:
            hi = mid - 1
    if not best:
        raise CapacityError(
            f"no HotSpot tile fits a budget of {budget_bytes} bytes "
            f"(halo={halo}, depth={depth})")
    if best > TILE_ALIGN:
        best -= best % TILE_ALIGN
    return best


@dataclass
class HotspotLevel:
    """Per-level problem: a halo-padded block and its output region.

    ``rows``/``cols`` are the *interior* (valid-output) dimensions; the
    padded buffers are ``(rows + 2*halo) x (cols + 2*halo)``.
    """

    t_pad: BufferHandle
    p_pad: BufferHandle
    out: BufferHandle
    rows: int
    cols: int
    halo: int
    edges: ChipEdges


class HotspotApp(NorthupProgram):
    """Northup out-of-core HotSpot-2D.

    Parameters
    ----------
    n:
        Grid edge (the chip is ``n x n``).
    iterations:
        Total Euler steps to simulate.
    steps_per_pass:
        Steps fused per storage pass (halo width); must divide
        ``iterations``.
    pipeline_depth:
        Buffer sets per level for load/compute overlap.
    force_tile:
        Override the automatic (largest-fitting) tile edge.  Smaller
        tiles leave headroom the buffer cache can use to keep the power
        blocks resident across passes; the cache-policy ablation relies
        on this.
    """

    root_buffers = ("t_pad_root", "p_pad_root", "out_root")

    def __init__(self, system: System, *, n: int, iterations: int = 1,
                 steps_per_pass: int = 1, pipeline_depth: int = 2,
                 seed: int = 0, force_tile: int | None = None,
                 params: HotspotParams | None = None) -> None:
        if n < 4:
            raise ConfigError(f"grid edge must be >= 4, got {n}")
        if iterations < 1 or steps_per_pass < 1:
            raise ConfigError("iterations and steps_per_pass must be >= 1")
        if iterations % steps_per_pass:
            raise ConfigError(
                f"steps_per_pass ({steps_per_pass}) must divide "
                f"iterations ({iterations})")
        if force_tile is not None and force_tile < 1:
            raise ConfigError(f"force_tile must be >= 1, got {force_tile}")
        self.system = system
        self.n = n
        self.iterations = iterations
        self.halo = steps_per_pass
        self.pipeline_depth = pipeline_depth
        self.force_tile = force_tile
        self.params = params if params is not None else default_params(n, n)
        self.seed = seed
        self.elem = 4

        # Born on the root: both fields stream into their padded frames.
        root = system.tree.root
        pad_n = n + 2 * self.halo
        self.t_pad_root = system.alloc(pad_n * pad_n * self.elem, root,
                                       label="temp_padded")
        self.p_pad_root = system.alloc(pad_n * pad_n * self.elem, root,
                                       label="power_padded")
        self.out_root = system.alloc(n * n * self.elem, root, label="temp_out")
        self._store_padded(self.p_pad_root,
                           thermal.power_grid_bands(n, n, seed=seed + 1))
        self._store_padded(self.t_pad_root,
                           thermal.initial_temperature_bands(n, n, seed=seed))
        self._staged_passes = 0

    # -- pass loop ---------------------------------------------------------

    def phases(self, ctx: ExecutionContext):
        """Execute all iterations: one tree sweep per pass, refreshing
        the padded root field in between (the pass's result becomes the
        next pass's input)."""
        for _ in range(self.iterations // self.halo):
            self._stage_padded_input()
            ctx.payload = HotspotLevel(
                t_pad=self.t_pad_root, p_pad=self.p_pad_root,
                out=self.out_root, rows=self.n, cols=self.n,
                halo=self.halo, edges=ChipEdges.whole_chip())
            yield from self.recurse(ctx)

    def _store_padded(self, handle: BufferHandle, bands) -> None:
        """Write ``(first_row, block)`` bands of the ``n x n`` field into
        its root frame, padded by an edge-replicated halo: each band with
        its side columns, the first and last also with the top and bottom
        halo rows."""
        h, n = self.halo, self.n
        for first, block in bands:
            top = h if first == 0 else 0
            bottom = h if first + len(block) == n else 0
            padded = np.pad(block, ((top, bottom), (h, h)), mode="edge")
            self.system.preload(handle, padded, offset=(
                first + h - top) * (n + 2 * h) * self.elem)

    def _stage_padded_input(self) -> None:
        """Copy the last pass's output, band by band, into the input frame.

        The first staging is the paper's untimed input preprocessing
        ("one-time overhead of preprocessing the original file and
        reorganizing it ... excluded"), done when the app was built;
        later passes restage mid-run and are charged as one root-local
        copy of the grid bytes."""
        sys_ = self.system
        self._staged_passes += 1
        if self._staged_passes == 1:
            return
        n, row_bytes = self.n, self.n * self.elem
        self._store_padded(self.t_pad_root, (
            (first, sys_.fetch(self.out_root, np.float32,
                               shape=(stop - first, n),
                               offset=first * row_bytes))
            for first, stop in row_bands(n, n)))
        dev = sys_.tree.root.device
        duration = dev.spec.latency + self.out_root.nbytes / min(
            dev.spec.read_bw, dev.spec.write_bw)
        from repro.sim.trace import Phase
        sys_.timeline.charge(dev.write_resource, duration, Phase.MEM_COPY
                             if dev.kind.value != "file" else Phase.IO_WRITE,
                             label="pass restage",
                             nbytes=self.out_root.nbytes)

    # -- template hooks ----------------------------------------------------

    def decompose(self, ctx: ExecutionContext) -> Iterable:
        lv: HotspotLevel = ctx.payload
        # Plan against cache-reclaimable capacity so resident cache
        # blocks never change the tile choice between passes.
        budget = int(min(ctx.system.free_for_planning(c)
                         for c in ctx.node.children) * CAPACITY_SAFETY)
        if self.force_tile is not None:
            tile = min(self.force_tile, lv.rows, lv.cols)
        else:
            tile = choose_hotspot_tile(lv.rows, lv.cols, halo=lv.halo,
                                       depth=self.pipeline_depth,
                                       budget_bytes=budget,
                                       elem_size=self.elem)
        grid = Grid2D(nrows=lv.rows, ncols=lv.cols, chunk_rows=tile,
                      chunk_cols=tile)
        ctx.scratch["tiles_n"] = grid.tiles_n
        return grid.tiles()

    def select_child(self, ctx: ExecutionContext, chunk) -> TreeNode:
        """Blocks spread round-robin over sibling subtrees -- each block
        is independent, so any child may take it."""
        children = ctx.node.children
        return children[(chunk.m * ctx.scratch["tiles_n"] + chunk.n)
                        % len(children)]

    def pipeline_window(self, ctx: ExecutionContext, chunks: list) -> int:
        """Blocks are independent and every child's ring holds
        ``pipeline_depth`` buffer sets, so that many chunks per child
        may be in flight: a block reuses the set of the block one window
        back, which the window edge orders, so no buffer edge is due."""
        return self.pipeline_depth * max(1, len(ctx.node.children))

    def access(self, ctx: ExecutionContext, chunk) -> list[Window]:
        """Each block's halo-padded temperature and power windows move
        down -- the block plus its ghost zone, which in padded
        coordinates starts exactly at ``(row0, col0)`` -- and its valid
        interior moves up, all through ``pipeline_depth`` buffer sets
        per child.  The power window is the same every pass: the one a
        cache can keep between passes."""
        lv: HotspotLevel = ctx.payload
        h, depth = lv.halo, self.pipeline_depth
        padded = window2d(chunk.row0, chunk.rows + 2 * h, chunk.col0,
                          chunk.cols + 2 * h, lv.cols + 2 * h, self.elem)
        return [Window("t", lv.t_pad, *padded, READ, depth),
                Window("p", lv.p_pad, *padded, READ, depth),
                Window("out", lv.out, *window2d(
                    chunk.row0, chunk.rows, chunk.col0, chunk.cols,
                    lv.cols, self.elem), WRITE, depth)]

    def child_problem(self, ctx: ExecutionContext, chunk,
                      bufs: dict) -> HotspotLevel:
        lv: HotspotLevel = ctx.payload
        return HotspotLevel(
            t_pad=bufs["t"], p_pad=bufs["p"], out=bufs["out"],
            rows=chunk.rows, cols=chunk.cols, halo=lv.halo,
            edges=lv.edges.sub_block(chunk.row0, chunk.row1, chunk.col0,
                                     chunk.col1, lv.rows, lv.cols))

    def compute_task(self, ctx: ExecutionContext) -> None:
        lv: HotspotLevel = ctx.payload
        sys_ = ctx.system
        gpu = ctx.get_device(ProcessorKind.GPU)
        prow = lv.rows + 2 * lv.halo
        pcol = lv.cols + 2 * lv.halo

        # Picklable block kernel: padded tiles in, valid interior out;
        # params/edges are host metadata riding along as kwargs.
        label = f"hotspot {lv.rows}x{lv.cols}x{lv.halo}"
        sys_.launch(gpu, hotspot_cost(prow, pcol, steps=lv.halo),
                    reads=(lv.t_pad, lv.p_pad), writes=(lv.out,),
                    kernel=kernel_spec(
                        hotspot_block,
                        Binding.read("t_pad", lv.t_pad, np.float32,
                                     (prow, pcol)),
                        Binding.read("p_pad", lv.p_pad, np.float32,
                                     (prow, pcol)),
                        Binding.update("out", lv.out, np.float32,
                                       (lv.rows, lv.cols)),
                        params=self.params, halo=lv.halo, edges=lv.edges,
                        label=label),
                    label=label)

    # -- results ---------------------------------------------------------

    def result(self) -> np.ndarray:
        """Fetch the final temperature grid from the tree root."""
        return self.system.fetch(self.out_root, np.float32,
                                 shape=(self.n, self.n))

    def reference(self) -> np.ndarray:
        """The host reference; the inputs are drawn again from the seed."""
        n, seed = self.n, self.seed
        return hotspot_run(thermal.initial_temperature(n, n, seed=seed),
                           thermal.power_grid(n, n, seed=seed + 1),
                           self.params, self.iterations)
