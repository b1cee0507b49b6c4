"""What each Table I call books: intervals and runtime ops.

Every call of the unified interface charges a fixed set of virtual
intervals (a transfer hop, a setup, a kernel, the framework's own
bookkeeping) and counts its bookkeeping in ``system.runtime_ops``.  A
change that makes the calls cheaper on the host must book exactly the
same ones; this table pins them per call, on the two-level APU tree
and on the three-level discrete-GPU tree, so a charge dropped or added
fails here and names the call.
"""

import numpy as np
import pytest

from repro.compute.processor import KernelCost
from repro.core.system import System
from repro.exec.base import Binding, kernel_spec
from repro.sim.trace import Phase
from repro.topology.builders import apu_two_level, discrete_gpu_three_level
from tests.exec import kernels

KB = 1024
RT, SETUP, IO, DEV, COPY, CACHE, GPU = (
    Phase.RUNTIME, Phase.SETUP, Phase.IO_READ, Phase.DEV_TRANSFER,
    Phase.MEM_COPY, Phase.CACHE, Phase.GPU_COMPUTE)
COST = KernelCost(flops=1e6, bytes_read=4096)

TREES = {"apu": apu_two_level, "dgpu": discrete_gpu_three_level}


class Bench:
    """A system plus handles on its root, middle and leaf nodes."""

    def __init__(self, tree_name: str) -> None:
        self.system = System(TREES[tree_name](storage_capacity=16 << 20,
                                              staging_bytes=4 << 20))
        tree = self.system.tree
        self.root, self.leaf = tree.root, tree.leaves()[0]
        self.mid = self.leaf.parent
        self.proc = self.leaf.processors[0]
        self.src = self.system.alloc(64 * KB, self.root)
        self.dst = self.system.alloc(64 * KB, self.leaf)


# Each entry sets up what its call needs and returns the call itself.

def _near(b):
    """A buffer one hop above the leaf."""
    return b.src if b.mid is b.root else b.system.alloc(64 * KB, b.mid)


def _kernel(b):
    return kernel_spec(kernels.fill, Binding.update("out", b.dst, np.uint8),
                       value=3)


def _move_one_hop(b):
    near = _near(b)
    return lambda: b.system.move(b.dst, near, 16 * KB)


def _launch_kernel(b):
    spec = _kernel(b)
    return lambda: b.system.launch(b.proc, COST, writes=(b.dst,),
                                   kernel=spec)


def _fetch_down(b):
    near = _near(b)
    return lambda: b.system.fetch_down(b.leaf, near, nbytes=8 * KB)


def _fetch_release(b):
    lease = b.system.fetch_down(b.leaf, _near(b), nbytes=8 * KB)
    return lambda: b.system.fetch_release(lease)


def _fetch_hit(b):
    near = _near(b)
    b.system.fetch_release(b.system.fetch_down(b.leaf, near, nbytes=8 * KB))
    return lambda: b.system.fetch_down(b.leaf, near, nbytes=8 * KB)


def _release_mapped(b):
    window = b.system.map_region(b.dst, 1 * KB, 4 * KB)
    return lambda: b.system.release(window)


CALLS = {
    "alloc": lambda b: lambda: b.system.alloc(4 * KB, b.leaf),
    "release": lambda b: lambda: b.system.release(b.dst),
    "move_one_hop": _move_one_hop,
    "move_two_hop": lambda b: lambda: b.system.move(b.dst, b.src, 16 * KB),
    "move_local": lambda b: lambda: b.system.move(b.dst, b.dst, 4 * KB,
                                                  dst_offset=32 * KB),
    "move_2d": lambda b: lambda: b.system.move_2d(
        b.dst, b.src, rows=8, row_bytes=1 * KB, src_offset=0,
        src_stride=4 * KB, dst_offset=0, dst_stride=1 * KB),
    "launch_cost_only": lambda b: lambda: b.system.launch(
        b.proc, COST, reads=(b.dst,)),
    "launch_kernel": _launch_kernel,
    "fetch_down": _fetch_down,
    "fetch_down_hit": _fetch_hit,
    "fetch_release": _fetch_release,
    "map_region": lambda b: lambda: b.system.map_region(b.dst, 1 * KB,
                                                        4 * KB),
    "release_mapped": _release_mapped,
}

#: (tree, call) -> (phases of the intervals the call books, in trace
#: order; runtime ops it counts).  ``apu`` has no two-hop pair: its only
#: edge is storage -> DRAM.
BUDGET = {
    ("apu", "alloc"): ((SETUP, RT), 1),
    ("apu", "release"): ((RT,), 1),
    ("apu", "move_one_hop"): ((IO, RT), 2),
    ("apu", "move_local"): ((COPY, RT), 2),
    ("apu", "move_2d"): ((IO, RT), 2),
    ("apu", "launch_cost_only"): ((GPU, RT), 1),
    ("apu", "launch_kernel"): ((GPU, RT), 1),
    ("apu", "fetch_down"): ((SETUP, IO, RT), 1),
    ("apu", "fetch_down_hit"): ((CACHE, RT), 1),
    ("apu", "fetch_release"): ((RT,), 1),
    ("apu", "map_region"): ((RT,), 1),
    ("apu", "release_mapped"): ((RT,), 1),
    ("dgpu", "alloc"): ((SETUP, RT), 1),
    ("dgpu", "release"): ((RT,), 1),
    ("dgpu", "move_one_hop"): ((DEV, RT), 2),
    ("dgpu", "move_two_hop"): ((IO, DEV, RT), 2),
    ("dgpu", "move_local"): ((COPY, RT), 2),
    ("dgpu", "move_2d"): ((IO, DEV, RT), 2),
    ("dgpu", "launch_cost_only"): ((GPU, RT), 1),
    ("dgpu", "launch_kernel"): ((GPU, RT), 1),
    ("dgpu", "fetch_down"): ((SETUP, DEV, RT), 1),
    ("dgpu", "fetch_down_hit"): ((CACHE, RT), 1),
    ("dgpu", "fetch_release"): ((RT,), 1),
    ("dgpu", "map_region"): ((RT,), 1),
    ("dgpu", "release_mapped"): ((RT,), 1),
}


def measure(tree_name: str, call: str):
    """``(phases booked, runtime ops counted)`` by one call."""
    b = Bench(tree_name)
    try:
        fn = CALLS[call](b)
        trace = b.system.timeline.trace
        before, ops = len(trace), b.system.runtime_ops
        fn()
        phases = tuple(row[2] for row in trace.window_rows(before,
                                                           len(trace)))
        return phases, b.system.runtime_ops - ops
    finally:
        b.system.close()


@pytest.mark.parametrize("tree_name,call", sorted(BUDGET))
def test_call_books_its_budget(tree_name, call):
    assert measure(tree_name, call) == BUDGET[tree_name, call], \
        f"{call} on {tree_name}"
