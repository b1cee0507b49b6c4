"""Out-of-core external merge sort.

The canonical divide-and-conquer out-of-core algorithm, and a different
data-flow shape from the paper's three case studies: a *run formation*
phase that maps cleanly onto the Listing 3 recursion (chunks stream
down, the leaf sorts, sorted runs stream back), followed by *k-way
merge passes* that stream blocks of several runs through the staging
level simultaneously and combine them on the CPU -- the "solutions of
subproblems are combined" half of Section I, at full scale.

The merge fan-in adapts to the staging capacity the same way every
decomposition in this package does: as many run cursors as fit, extra
passes when they do not (classic polyphase behaviour emerges from the
capacity rule alone).

Not one of the paper's benchmarks; included as further evidence that
the framework "is generic to a variety of problems" (Section IV).
Results are verified against ``np.sort`` in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.compute.processor import KernelCost, ProcessorKind
from repro.core.buffers import BufferHandle
from repro.core.context import ExecutionContext
from repro.core.decomposition import Range1D, fit_row_chunks
from repro.core.program import UPDATE, NorthupProgram, Window
from repro.core.system import System
from repro.errors import ConfigError, UnsortedRunError
from repro.exec import Binding, kernel_spec
from repro.topology.node import TreeNode
from repro.workloads.matrices import load_bands, row_bands

CAPACITY_SAFETY = 0.9
ELEM = 4  # float32


def sort_block(vals: np.ndarray) -> None:
    """Executor entry point (module-level, picklable): sort one run in
    place -- ``vals`` is an inout binding over the run's bytes."""
    vals.sort()


def merge_cost(n: int, fan_in: int) -> KernelCost:
    """Cost of merging ``n`` elements from ``fan_in`` sorted streams;
    sorting ``n`` in fast memory is ``merge_cost(n, n)``."""
    comparisons = max(1.0, n * np.log2(max(2, fan_in)))
    return KernelCost(flops=2.0 * comparisons, bytes_read=4.0 * n,
                      bytes_written=4.0 * n, efficiency=0.10,
                      bw_efficiency=0.5)


@dataclass
class SortLevel:
    """Phase-1 problem: the local slice to sort in place."""

    data: BufferHandle
    n: int


class SortApp(NorthupProgram):
    """Out-of-core ascending sort of a float32 vector.

    Parameters
    ----------
    n:
        Element count; the vector lives at the tree root.
    """

    root_buffers = ("data_root", "scratch_root")

    def __init__(self, system: System, *, n: int, seed: int = 0) -> None:
        if n < 1:
            raise ConfigError(f"element count must be >= 1, got {n}")
        self.system = system
        self.n = n
        self.seed = seed
        root = system.tree.root
        self.data_root = system.alloc(n * ELEM, root, label="data")
        self.scratch_root = system.alloc(n * ELEM, root, label="scratch")
        load_bands(system, self.data_root, self._input_bands())
        self.runs: list[Range1D] = []
        self._result_in_scratch = False

    def _input_bands(self):
        """The seeded standard-normal input, drawn band by band."""
        rng = np.random.default_rng(self.seed)
        for first, stop in row_bands(self.n, 1):
            yield first, rng.standard_normal(stop - first).astype(np.float32)

    # -- phase 1: run formation (the Listing 3 recursion) -----------------

    def decompose(self, ctx: ExecutionContext) -> Iterable[Range1D]:
        lv: SortLevel = ctx.payload
        # A run must be sortable *in one piece* at the leaf, so runs are
        # sized by the smallest memory on the descent path -- the
        # external-sort rule "run length = sort memory".  Inner levels
        # then see data that already fits their child and pass it
        # through whole -- as long as cache-resident bytes count as
        # free, or a full cache would split a run at an inner level
        # into pieces sorted apart.
        budget = None
        node: TreeNode | None = ctx.first_child()
        while node is not None:
            free = int(self.system.free_for_planning(node) * CAPACITY_SAFETY)
            budget = free if budget is None else min(budget, free)
            node = node.children[0] if node.children else None
        chunks = fit_row_chunks(lv.n, row_bytes=ELEM, budget_bytes=budget,
                                copies=2)
        if ctx.node is self.system.tree.root:
            self.runs = chunks
        return chunks

    def access(self, ctx: ExecutionContext, chunk: Range1D) -> list[Window]:
        """A run is sorted in place: moved down and back up."""
        lv: SortLevel = ctx.payload
        return [Window.span("run", lv.data, chunk.start * ELEM,
                            chunk.size * ELEM, UPDATE)]

    def child_problem(self, ctx: ExecutionContext, chunk: Range1D,
                      bufs: dict) -> SortLevel:
        return SortLevel(data=bufs["run"], n=chunk.size)

    def compute_task(self, ctx: ExecutionContext) -> None:
        lv: SortLevel = ctx.payload
        sys_ = ctx.system
        proc = ctx.get_device()

        # In-place sort over one inout binding; any compute backend can
        # run it (the run both reads and writes lv.data).
        sys_.launch(proc, merge_cost(lv.n, lv.n), reads=(lv.data,),
                    writes=(lv.data,),
                    kernel=kernel_spec(
                        sort_block,
                        Binding.update("vals", lv.data, np.float32,
                                       count=lv.n * ELEM),
                        label=f"sort {lv.n}"),
                    label=f"sort {lv.n}")

    def pipeline_window(self, ctx: ExecutionContext, chunks: list) -> int:
        """Runs are disjoint slices of the parent array and the chunk
        budget reserves room for two run buffers (``copies=2``)."""
        return 2

    # -- phase 2: k-way merge passes ----------------------------------------

    def before_run(self, ctx: ExecutionContext) -> None:
        ctx.payload = SortLevel(data=self.data_root, n=self.n)

    def phases(self, ctx: ExecutionContext):
        yield from self.recurse(ctx)           # phase 1
        self._merge_runs(ctx)                  # phase 2

    def _merge_runs(self, ctx: ExecutionContext) -> None:
        if len(self.runs) < 2:
            # One run is already sorted in place; on a one-node tree
            # the root sorted everything as a leaf and formed no runs.
            return
        sys_ = self.system
        proc = None
        node: TreeNode | None = ctx.first_child()
        while node is not None and not node.processors:
            node = node.children[0] if node.children else None
        if node is not None and node.processors:
            cpu = [p for p in node.processors
                   if p.kind is ProcessorKind.CPU]
            proc = cpu[0] if cpu else node.processors[0]
        if proc is None:
            raise ConfigError("merge phase needs a processor below the root")
        merge_node = sys_.processor_node(proc)

        src, dst = self.data_root, self.scratch_root
        runs = list(self.runs)
        # The merge working set is fan_in input blocks plus an output
        # buffer of fan_in blocks: 2 * fan_in * block elements total.
        budget_elems = int(merge_node.free * CAPACITY_SAFETY) // ELEM
        block = max(64, budget_elems // 16)
        max_fan_in = max(2, budget_elems // (2 * block))
        while len(runs) > 1:
            fan_in = min(max_fan_in, len(runs))
            new_runs: list[Range1D] = []
            for g in range(0, len(runs), fan_in):
                group = runs[g:g + fan_in]
                self._merge_group(src, dst, group, block, proc, merge_node)
                new_runs.append(Range1D(index=len(new_runs),
                                        start=group[0].start,
                                        stop=group[-1].stop))
            runs = new_runs
            src, dst = dst, src
            self._result_in_scratch = src is self.scratch_root

    def _merge_group(self, src: BufferHandle, dst: BufferHandle,
                     group: list[Range1D], block: int, proc,
                     merge_node: TreeNode) -> None:
        """Stream-merge one group of sorted runs from src into dst."""
        sys_ = self.system
        k = len(group)
        if k == 1:
            # Odd run out: copy through the staging level unchanged.
            self._copy_run(src, dst, group[0], block, merge_node)
            return

        in_bufs = [sys_.alloc(block * ELEM, merge_node, label=f"in{i}")
                   for i in range(k)]
        # One merge round can emit up to k blocks at once.
        out_buf = sys_.alloc(k * block * ELEM, merge_node, label="out")

        cursors = [r.start for r in group]          # next unread element
        ends = [r.stop for r in group]
        heads: list[np.ndarray] = [np.empty(0, dtype=np.float32)] * k
        write_pos = group[0].start

        def refill(i: int) -> None:
            want = min(block, ends[i] - cursors[i])
            if want <= 0:
                return
            sys_.move_down(in_bufs[i], src, want * ELEM,
                           src_offset=cursors[i] * ELEM, label="merge load")
            # Zero-copy where the node allows: a head is spent before refill.
            heads[i], _ = sys_.host_array(in_bufs[i], np.float32,
                                          count=want * ELEM)
            cursors[i] += want

        for i in range(k):
            refill(i)

        while any(h.size for h in heads):
            # Safe bound: the smallest per-stream maximum among streams
            # that still have unread data; everything <= it can merge now.
            bounds = [h[-1] for i, h in enumerate(heads)
                      if h.size and cursors[i] < ends[i]]
            bound = min(bounds) if bounds else np.float32(np.inf)
            parts = []
            for i in range(k):
                h = heads[i]
                if not h.size:
                    continue
                take = int(np.searchsorted(h, bound, side="right"))
                parts.append(h[:take])
                heads[i] = h[take:]
            size = sum(p.size for p in parts)
            if not size:
                # Sorted heads always take something: the bound is one
                # head's last element.
                raise UnsortedRunError(
                    f"merge of runs {[(r.start, r.stop) for r in group]} "
                    f"took nothing at element {write_pos}: a run is unsorted")
            # Concatenate and sort in the output buffer itself.
            merged, in_place = sys_.host_array(
                out_buf, np.float32, count=size * ELEM, writable=True)
            np.concatenate(parts, out=merged)
            merged.sort()
            if not in_place:
                sys_.preload(out_buf, merged)
            sys_.launch(proc, merge_cost(size, k),
                        reads=tuple(in_bufs), writes=(out_buf,),
                        label=f"merge {size}")
            sys_.move_up(dst, out_buf, size * ELEM,
                         dst_offset=write_pos * ELEM, label="merge flush")
            write_pos += size
            for i in range(k):
                if not heads[i].size and cursors[i] < ends[i]:
                    refill(i)

        assert write_pos == group[-1].stop, "merge lost or duplicated elements"
        for h in in_bufs:
            sys_.release(h)
        sys_.release(out_buf)

    def _copy_run(self, src: BufferHandle, dst: BufferHandle, run: Range1D,
                  block: int, merge_node: TreeNode) -> None:
        sys_ = self.system
        buf = sys_.alloc(block * ELEM, merge_node, label="copy")
        pos = run.start
        while pos < run.stop:
            want = min(block, run.stop - pos)
            sys_.move_down(buf, src, want * ELEM, src_offset=pos * ELEM,
                           label="copy load")
            sys_.move_up(dst, buf, want * ELEM, dst_offset=pos * ELEM,
                         label="copy flush")
            pos += want
        sys_.release(buf)

    # -- results ---------------------------------------------------------

    def result(self) -> np.ndarray:
        """Fetch the fully sorted vector from the tree root."""
        handle = (self.scratch_root if self._result_in_scratch
                  else self.data_root)
        return self.system.fetch(handle, np.float32, count=self.n * ELEM)

    def reference(self) -> np.ndarray:
        """``np.sort`` of the input, drawn again from the seed."""
        return np.sort(np.concatenate([b for _, b in self._input_bands()]))
