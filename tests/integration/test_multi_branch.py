"""Multi-branch execution: chunks spread over sibling subtrees overlap.

Section III-C's alternative to sequential chunk processing: "level i can
spawn multiple tasks each processing one chunk to one of its children at
level i+1 (e.g., multiple tree branches)".  With two staging memories
each owning a GPU, alternating chunks between branches should roughly
halve the compute span relative to pinning every chunk on one branch.
"""

import numpy as np
import pytest

from repro.compute.processor import KernelCost, ProcessorKind
from repro.core.program import WRITE, NorthupProgram, Window
from repro.core.system import System
from repro.exec.base import Binding, kernel_spec
from repro.memory.units import KB, MB
from repro.topology.builders import dual_branch_apu
from tests.exec import kernels


class BranchSpread(NorthupProgram):
    """Doubles a vector chunk by chunk, optionally alternating branches."""

    def __init__(self, system, n, chunks, spread):
        self.n, self.num_chunks, self.spread = n, chunks, spread
        root = system.tree.root
        self.input = system.alloc(n, root, label="in")
        self.output = system.alloc(n, root, label="out")
        system.preload(self.input, (np.arange(n) % 100).astype(np.uint8))

    def decompose(self, ctx):
        size = self.n // self.num_chunks
        return [(i, i * size, size) for i in range(self.num_chunks)]

    def select_child(self, ctx, chunk):
        kids = ctx.node.children
        return kids[chunk[0] % len(kids)] if self.spread else kids[0]

    def access(self, ctx, chunk):
        _i, off, size = chunk
        return [Window.span("in", self.input, off, size),
                Window.span("out", self.output, off, size, WRITE)]

    def compute_task(self, ctx):
        sys_, bufs = ctx.system, ctx.payload
        gpu = ctx.get_device(ProcessorKind.GPU)

        # A deliberately beefy kernel so compute dominates the storage
        # channel and the branch overlap is visible in the makespan.
        sys_.launch(gpu, KernelCost(flops=737e9 * 0.01, bytes_read=0,
                                    efficiency=1.0),
                    reads=(bufs["in"],), writes=(bufs["out"],),
                    kernel=kernel_spec(
                        kernels.double,
                        Binding.read("data", bufs["in"], np.uint8),
                        Binding.update("out", bufs["out"], np.uint8)))



def run(spread):
    system = System(dual_branch_apu(storage_capacity=16 * MB,
                                    staging_bytes=256 * KB))
    try:
        prog = BranchSpread(system, n=8192, chunks=8, spread=spread)
        prog.run(system)
        expected = ((np.arange(8192) % 100) * 2 % 256).astype(np.uint8)
        np.testing.assert_array_equal(system.fetch(prog.output, np.uint8),
                                      expected)
        return system
    finally:
        system.close()


def test_dual_branch_tree_shape():
    tree = dual_branch_apu(storage_capacity=16 * MB)
    assert len(tree.root.children) == 2
    assert len(tree.leaves()) == 2
    names = {p.name for p in tree.processors()}
    assert names == {"gpu.branch0", "gpu.branch1",
                     "cpu.branch0", "cpu.branch1"}
    tree.close()


def test_spreading_halves_compute_span():
    pinned = run(spread=False).makespan()
    spread = run(spread=True).makespan()
    # Two GPUs working concurrently: close to 2x on the compute-bound part.
    assert spread < 0.65 * pinned


def test_both_gpus_used_when_spreading():
    system = run(spread=True)
    from repro.sim.trace import Phase
    gpu_resources = {iv.resource for iv in system.timeline.trace
                     if iv.phase is Phase.GPU_COMPUTE}
    assert gpu_resources == {"gpu.branch0", "gpu.branch1"}


def test_gpu_intervals_overlap_across_branches():
    system = run(spread=True)
    from repro.sim.trace import Phase
    gpu_ivs = [iv for iv in system.timeline.trace
               if iv.phase is Phase.GPU_COMPUTE]
    overlapping = any(
        a.start < b.end and b.start < a.end
        for a in gpu_ivs for b in gpu_ivs
        if a.resource != b.resource)
    assert overlapping
