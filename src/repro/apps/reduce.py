"""Out-of-core reduction: the *combine* side of divide-and-conquer.

The paper's three case studies write their results back element for
element; reductions exercise the other half of the model's promise --
"in the end, the solutions of subproblems are combined to generate the
final result" (Section I).  A vector far larger than the staging buffer
streams through the hierarchy; each chunk reduces to one partial on the
leaf processor, partials collect in a small buffer, and a final combine
kernel folds them before the scalar moves back to the root.

Not one of the paper's benchmarks; included to demonstrate that the
framework "is generic to a variety of problems" (Section IV) with a
different data-flow shape, and tested against NumPy like everything
else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.compute.processor import KernelCost, ProcessorKind
from repro.core.buffers import BufferHandle
from repro.core.context import ExecutionContext
from repro.core.decomposition import Range1D, fit_row_chunks
from repro.core.program import WRITE, NorthupProgram, Window
from repro.core.system import System
from repro.errors import ConfigError
from repro.exec.base import Binding, kernel_spec
from repro.workloads.matrices import (load_bands, random_dense,
                                      random_dense_bands)

CAPACITY_SAFETY = 0.9


#: Reduction operator name -> flops per element of its fold.
OPS = {"sum": 1.0, "max": 1.0, "min": 1.0, "l2": 2.0}


def _fold(a: np.ndarray, op: str) -> np.float64:
    """The ``op`` fold of ``a`` as a float64 (``l2``: sum of squares)."""
    if op == "l2":
        return (a.astype(np.float64) ** 2).sum()
    if op == "sum":
        return a.sum(dtype=np.float64)
    return np.float64(a.max() if op == "max" else a.min())


def reduce_fold(data: np.ndarray, out: np.ndarray, *, op: str) -> None:
    """Executor entry point: ``out[0]`` = the ``op`` fold of a chunk."""
    out[0] = _fold(data, op)


def reduce_combine(partials: np.ndarray, out: np.ndarray, *,
                   op: str) -> None:
    """Executor entry point: ``out[0]`` = the ``op`` combine of the
    per-chunk partials (``l2`` partials are sums of squares: they add)."""
    out[0] = _fold(partials, "sum" if op == "l2" else op)


@dataclass
class ReduceLevel:
    """Per-level problem: the local vector slice and a result slot."""

    data: BufferHandle
    out: BufferHandle          # 8-byte float64 result slot
    n: int


class ReduceApp(NorthupProgram):
    """Northup out-of-core reduction over a float32 vector.

    Parameters
    ----------
    n:
        Element count.
    op:
        ``"sum"``, ``"max"``, ``"min"``, or ``"l2"`` (sum of squares).

    Notes
    -----
    Chunks descend the first-child chain (partials collect per level);
    the final value is a float64 at the tree root.  ``l2`` reductions
    are non-trivial to combine (the combine operator differs from the
    fold), which is exactly the case the per-level combine step exists
    for.
    """

    root_buffers = ("data_root", "out_root")

    def __init__(self, system: System, *, n: int, op: str = "sum",
                 seed: int = 0) -> None:
        if op not in OPS:
            raise ConfigError(f"unknown reduction {op!r}; known: {sorted(OPS)}")
        if n < 1:
            raise ConfigError(f"element count must be >= 1, got {n}")
        self.system = system
        self.n = n
        self.op = op
        self.seed = seed
        root = system.tree.root
        self.data_root = system.alloc(n * 4, root, label="data")
        self.out_root = system.alloc(8, root, label="result")
        # Uniform in [-1, 1): one column of ``random_dense``'s stream.
        load_bands(system, self.data_root,
                   random_dense_bands(n, 1, seed=seed))

    # -- template hooks -------------------------------------------------

    def before_run(self, ctx: ExecutionContext) -> None:
        ctx.payload = ReduceLevel(data=self.data_root, out=self.out_root,
                                  n=self.n)

    def decompose(self, ctx: ExecutionContext) -> Iterable[Range1D]:
        lv: ReduceLevel = ctx.payload
        child = ctx.first_child()
        budget = int(child.free * CAPACITY_SAFETY)
        # Two chunk buffers (pipelining) + the partials array, which is
        # allocated now so the chunks' windows can map their slots.
        chunks = fit_row_chunks(lv.n, row_bytes=4, budget_bytes=budget,
                                copies=2)
        ctx.scratch["partials"] = ctx.system.alloc(len(chunks) * 8, child,
                                                   label="partials")
        return chunks

    def access(self, ctx: ExecutionContext, chunk: Range1D) -> list[Window]:
        """The chunk moves down; its partial is a view of the child's
        partials array, which stays there until the level-end combine."""
        lv: ReduceLevel = ctx.payload
        return [Window.span("data", lv.data, chunk.start * 4, chunk.size * 4),
                Window.span("out", ctx.scratch["partials"], chunk.index * 8,
                            8, WRITE)]

    def child_problem(self, ctx: ExecutionContext, chunk: Range1D,
                      bufs: dict) -> ReduceLevel:
        return ReduceLevel(data=bufs["data"], out=bufs["out"], n=chunk.size)

    def compute_task(self, ctx: ExecutionContext) -> None:
        lv: ReduceLevel = ctx.payload
        sys_ = ctx.system
        gpu = ctx.get_device(ProcessorKind.GPU)
        label = f"{self.op} {lv.n}"
        sys_.launch(gpu, KernelCost(flops=OPS[self.op] * lv.n,
                                    bytes_read=lv.n * 4.0, bytes_written=8.0,
                                    efficiency=0.5, bw_efficiency=0.8),
                    reads=(lv.data,), writes=(lv.out,),
                    kernel=kernel_spec(
                        reduce_fold,
                        Binding.read("data", lv.data, np.float32, (lv.n,)),
                        Binding.update("out", lv.out, np.float64, (1,)),
                        op=self.op, label=label),
                    label=label)

    def pipeline_window(self, ctx: ExecutionContext, chunks: list) -> int:
        """Chunks fold into disjoint mapped partial slots and the chunk
        sizing reserves room for two chunk buffers (``copies=2``)."""
        return 2

    def after_level(self, ctx: ExecutionContext) -> None:
        """Combine the partials and move the single value up."""
        sys_ = ctx.system
        lv: ReduceLevel = ctx.payload
        partials: BufferHandle = ctx.scratch.pop("partials")
        child = ctx.first_child()
        result = sys_.alloc(8, child, label="combined")
        num = partials.nbytes // 8
        if child.processors:
            sys_.launch(child.processors[0],
                        KernelCost(flops=float(num), bytes_read=num * 8.0,
                                   bytes_written=8.0, efficiency=0.5,
                                   bw_efficiency=0.8),
                        reads=(partials,), writes=(result,),
                        kernel=kernel_spec(
                            reduce_combine,
                            Binding.read("partials", partials, np.float64,
                                         (num,)),
                            Binding.update("out", result, np.float64, (1,)),
                            op=self.op, label=f"combine {num}"),
                        label=f"combine {num}")
        else:
            # An intermediate node without a processor: combine on the
            # host (charged as runtime bookkeeping) -- tiny either way.
            out = np.empty(1, dtype=np.float64)
            reduce_combine(sys_.fetch(partials, np.float64, count=num * 8),
                           out, op=self.op)
            sys_.preload(result, out)
            sys_.charge_runtime(num, label="host combine")
        sys_.move_up(lv.out, result, 8, label="result up")
        sys_.release(result)
        sys_.release(partials)

    # -- results ---------------------------------------------------------

    def result(self) -> float:
        """Fetch the reduced scalar from the tree root."""
        return float(self.system.fetch(self.out_root, np.float64)[0])

    def reference(self) -> float:
        """The host reference: one fold over the input, drawn again."""
        return float(_fold(random_dense(self.n, 1, seed=self.seed).ravel(),
                           self.op))
