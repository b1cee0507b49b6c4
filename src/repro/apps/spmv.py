"""Out-of-core CSR-Adaptive SpMV (paper Section IV-C).

The three CSR vectors (``row_ptr``, ``col_id``, ``data``), the dense
input vector ``x`` and the output ``y`` live at the tree root.  Each
level splits its row range into shards by *non-zero count* -- the
paper's nnz-aware decomposition: "if the nnz of a shard is too large to
fit in the next-level memory, it can be further broken into smaller
shards" -- and moves the three slices down.  ``x`` is replicated once
onto every node of the descent path ("one requirement for SpMV is the
fastest memory has to be big enough to hold the vector").

At the leaf the CPU bins the shard's rows (the CSR-Adaptive
preprocessing that shows up as CPU time in Figure 7) and the GPU runs
the per-bin kernels; both answers and bin structure are the real
CSR-Adaptive algorithm from :mod:`repro.compute.kernels.spmv`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.compute.kernels.spmv import (CSRMatrix, bin_rows, binning_cost,
                                        spmv, spmv_block, spmv_cost)
from repro.compute.processor import ProcessorKind
from repro.core.buffers import BufferHandle
from repro.core.context import ExecutionContext
from repro.core.decomposition import Range1D, split_even, split_rows_by_nnz
from repro.core.program import WRITE, NorthupProgram, Window
from repro.core.system import System
from repro.errors import CapacityError, ConfigError
from repro.exec import Binding, kernel_spec
from repro.topology.node import TreeNode

CAPACITY_SAFETY = 0.9

#: Bytes per non-zero moved down: 4 (data) + 4 (col_id).
BYTES_PER_NNZ = 8
#: Bytes per row moved: 8 (row_ptr entry) + 4 (y entry up).
BYTES_PER_ROW = 12


@dataclass
class SpmvLevel:
    """Per-level problem: a shard's CSR slices plus the local row_ptr
    (kept as a NumPy array for decomposition decisions -- the host reads
    metadata, as any runtime must)."""

    row_ptr: BufferHandle
    col_id: BufferHandle
    data: BufferHandle
    x: BufferHandle
    y: BufferHandle
    row_ptr_np: np.ndarray  # rebased, len nrows+1
    nrows: int
    nnz: int


class SpmvApp(NorthupProgram):
    """Northup out-of-core SpMV.

    Parameters
    ----------
    matrix:
        The input CSR matrix (see :mod:`repro.workloads.sparse`).
    block_nnz:
        CSR-Adaptive bin size at the leaf.
    iterations:
        Matvec sweeps to run (matrix and x unchanged, as in an
        iterative solver's inner loop).  Every sweep re-streams the same
        CSR shards from the root -- the cyclic access pattern the buffer
        cache's policies differ most on.
    """

    def __init__(self, system: System, *, matrix: CSRMatrix,
                 seed: int = 0, block_nnz: int = 1024,
                 shard_strategy: str = "nnz", iterations: int = 1) -> None:
        if shard_strategy not in ("nnz", "rows"):
            raise ConfigError(
                f"shard_strategy must be 'nnz' or 'rows', got "
                f"{shard_strategy!r}")
        if iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        self.system = system
        self.csr = matrix
        self.block_nnz = block_nnz
        self.shard_strategy = shard_strategy
        self.iterations = iterations
        self._iteration = 0
        rng = np.random.default_rng(seed)
        self.x_np = (2.0 * rng.random(matrix.ncols) - 1.0).astype(np.float32)

        root = system.tree.root
        self.row_ptr_root = system.alloc(matrix.row_ptr.nbytes, root,
                                         label="row_ptr")
        self.col_id_root = system.alloc(max(1, matrix.col_id.nbytes), root,
                                        label="col_id")
        self.data_root = system.alloc(max(1, matrix.data.nbytes), root,
                                      label="data")
        self.x_root = system.alloc(self.x_np.nbytes, root, label="x")
        self.y_root = system.alloc(max(1, matrix.nrows * 4), root, label="y")
        system.preload(self.row_ptr_root, matrix.row_ptr)
        if matrix.nnz:
            system.preload(self.col_id_root, matrix.col_id)
            system.preload(self.data_root, matrix.data)
        system.preload(self.x_root, self.x_np)
        self._x_by_node: dict[int, BufferHandle] = {
            root.node_id: self.x_root}

    # -- sweep loop --------------------------------------------------------

    def phases(self, ctx: ExecutionContext):
        """Run ``iterations`` sweeps of y = A x.  The operands never
        change, so each sweep recomputes the identical y; what differs
        is the data movement -- with a transparent cache, shards left
        resident by one sweep are served locally in the next."""
        root_payload = ctx.payload
        for it in range(self.iterations):
            self._iteration = it
            ctx.payload = root_payload
            yield from self.recurse(ctx)

    # -- x replication -----------------------------------------------------

    def before_run(self, ctx: ExecutionContext) -> None:
        """Broadcast x down every branch once; it stays resident for the
        whole run (shards may land on any subtree)."""
        sys_ = self.system
        frontier = [sys_.tree.root]
        while frontier:
            node = frontier.pop()
            for child in node.children:
                handle = sys_.alloc(self.x_np.nbytes, child, label="x")
                sys_.move_down(handle, self._x_by_node[node.node_id],
                               self.x_np.nbytes, label="x down")
                self._x_by_node[child.node_id] = handle
                frontier.append(child)
        ctx.payload = SpmvLevel(
            row_ptr=self.row_ptr_root, col_id=self.col_id_root,
            data=self.data_root, x=self.x_root, y=self.y_root,
            row_ptr_np=self.csr.row_ptr, nrows=self.csr.nrows,
            nnz=self.csr.nnz)

    # -- template hooks ----------------------------------------------------

    def decompose(self, ctx: ExecutionContext) -> Iterable[Range1D]:
        lv: SpmvLevel = ctx.payload
        # Cache-resident bytes count as free: shard sizing must not
        # drift between sweeps as blocks accumulate.
        budget = int(min(ctx.system.free_for_planning(c)
                         for c in ctx.node.children) * CAPACITY_SAFETY)
        if budget <= 0:
            raise CapacityError(
                f"children of node {ctx.node.node_id} have no free "
                f"capacity for shards (x occupies {self.x_np.nbytes} "
                f"bytes each)")
        # Two shard sets resident (pipelining) at BYTES_PER_NNZ+overhead.
        avg_row = max(1.0, lv.nnz / max(1, lv.nrows))
        bytes_per_nnz = BYTES_PER_NNZ + BYTES_PER_ROW / avg_row
        budget_nnz = max(1, int(budget / (2 * bytes_per_nnz)))
        self.system.charge_runtime(lv.nrows // 4096 + 1, label="shard scan")
        shards = split_rows_by_nnz(lv.row_ptr_np, budget_nnz)
        if self.shard_strategy == "rows":
            # Section IV-C's "simple strategy ... evenly divide rows":
            # the same shard count, but oblivious to per-row non-zeros.
            # Skewed inputs then produce wildly uneven shards, and a
            # shard can overflow the next level -- the failure mode the
            # nnz-aware split exists to avoid.
            return split_even(lv.nrows, len(shards))
        return shards

    def select_child(self, ctx: ExecutionContext, shard: Range1D) -> TreeNode:
        """Shards spread round-robin over sibling subtrees."""
        children = ctx.node.children
        return children[shard.index % len(children)]

    def access(self, ctx: ExecutionContext, shard: Range1D) -> list[Window]:
        """The shard's three CSR slices move down (an empty shard's
        col_id/data windows get a one-byte buffer and move nothing);
        its y slice moves up."""
        lv: SpmvLevel = ctx.payload
        lo = int(lv.row_ptr_np[shard.start])
        nnz = int(lv.row_ptr_np[shard.stop]) - lo
        return [Window.span("row_ptr", lv.row_ptr, shard.start * 8,
                            (shard.size + 1) * 8),
                Window.span("col_id", lv.col_id, lo * 4, nnz * 4),
                Window.span("data", lv.data, lo * 4, nnz * 4),
                Window.span("y", lv.y, shard.start * 4, shard.size * 4,
                            WRITE)]

    def child_problem(self, ctx: ExecutionContext, shard: Range1D,
                      bufs: dict) -> SpmvLevel:
        lv: SpmvLevel = ctx.payload
        lo = int(lv.row_ptr_np[shard.start])
        # Rebase the shard's row_ptr (host-side metadata fix-up).
        local_ptr = lv.row_ptr_np[shard.start:shard.stop + 1] - lo
        ctx.system.preload(bufs["row_ptr"], local_ptr.astype(np.int64))
        child_id = bufs["y"].node_id
        return SpmvLevel(
            row_ptr=bufs["row_ptr"], col_id=bufs["col_id"],
            data=bufs["data"], x=self._x_by_node[child_id],
            y=bufs["y"], row_ptr_np=local_ptr, nrows=shard.size,
            nnz=int(local_ptr[-1]))

    def prefetch_hints(self, ctx: ExecutionContext,
                       hints: list) -> list | None:
        """Root level only: this sweep's shard slices and those of every
        remaining sweep, in access order.  Folding the later sweeps in
        lets the Belady oracle see that a shard evicted mid-sweep comes
        straight back next sweep -- the cyclic pattern plain LRU is
        worst at."""
        if not ctx.node.is_root:
            return None
        return hints * (self.iterations - self._iteration)

    def compute_task(self, ctx: ExecutionContext) -> None:
        lv: SpmvLevel = ctx.payload
        sys_ = ctx.system
        gpu = ctx.get_device(ProcessorKind.GPU)
        cpu = ctx.get_device(ProcessorKind.CPU)

        blocks = bin_rows(lv.row_ptr_np, block_nnz=self.block_nnz)
        # CPU pass: row binning (Figure 7's CPU component).  On trees
        # where the CPU sits above the leaf (discrete GPU), it bins the
        # copy that passed through its own node, so the local buffer is
        # only a dependency when it lives where the CPU does.
        cpu_node = sys_.processor_node(cpu)
        bin_reads = ((lv.row_ptr,) if lv.row_ptr.node_id == cpu_node.node_id
                     else ())
        sys_.launch(cpu, binning_cost(lv.nrows), reads=bin_reads,
                    label=f"bin {lv.nrows} rows")

        # Picklable shard kernel: device buffers bind as arrays, the
        # shard's row_ptr and bins travel as host-metadata kwargs.
        label = f"spmv {lv.nrows}r/{lv.nnz}nnz"
        sys_.launch(gpu, spmv_cost(lv.nnz, lv.nrows, blocks=blocks),
                    reads=(lv.col_id, lv.data, lv.x, lv.row_ptr),
                    writes=(lv.y,),
                    kernel=kernel_spec(
                        spmv_block,
                        Binding.read("col_id", lv.col_id, np.int32,
                                     (lv.nnz,)),
                        Binding.read("data", lv.data, np.float32,
                                     (lv.nnz,)),
                        Binding.read("x", lv.x, np.float32,
                                     (self.csr.ncols,)),
                        Binding.update("y", lv.y, np.float32, (lv.nrows,)),
                        row_ptr=lv.row_ptr_np, ncols=self.csr.ncols,
                        blocks=blocks, label=label),
                    label=label)

    def pipeline_window(self, ctx: ExecutionContext, chunks: list) -> int:
        """Shards touch disjoint row ranges and the shard sizing
        reserves capacity for two resident shard sets."""
        return 2

    def after_run(self, ctx: ExecutionContext) -> None:
        """Release the cascaded x copies (the root's stays)."""
        for node_id, handle in self._x_by_node.items():
            if handle is not self.x_root and not handle.released:
                self.system.release(handle)

    # -- results ---------------------------------------------------------

    def result(self) -> np.ndarray:
        """Fetch the output vector y from the tree root."""
        return self.system.fetch(self.y_root, np.float32,
                                 count=self.csr.nrows * 4)

    def reference(self) -> np.ndarray:
        """The NumPy/host reference the tests compare against."""
        return spmv(self.csr, self.x_np)

    def release_root_buffers(self) -> None:
        """Free the root-level buffers this app allocated."""
        for h in (self.row_ptr_root, self.col_id_root, self.data_root,
                  self.x_root, self.y_root):
            if not h.released:
                self.system.release(h)
