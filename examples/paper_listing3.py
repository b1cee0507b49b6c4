#!/usr/bin/env python
"""The paper's Listing 3, line for line.

This example writes a Northup program against the module-level
functional API (`repro.core.api`) so that it reads like the paper's
pseudocode: `get_cur_treenode()`, `alloc(size, node)`,
`move_data_down(...)`, `northup_spawn(myfunction, ...)`,
`move_data_up(...)`.  The "algorithm" scales a matrix by 2 chunk by
chunk -- deliberately trivial so the structure is the star.

One step sits elsewhere than in the listing: `move_data_up` moves from
the child side (the current node is the source), so the spawned call
moves its result up at the end of its own leaf step, where the listing
calls `data_up()` in the parent after the spawn returns.  The charges
and bytes are the same, in the same order.

Run:  python examples/paper_listing3.py
"""

import numpy as np

from repro.compute.processor import KernelCost, ProcessorKind
from repro.core import api
from repro.core.system import System
from repro.exec.base import Binding, kernel_spec
from repro.memory.units import KB, MB
from repro.topology.builders import apu_two_level

CHUNKS_X, CHUNKS_Y = 2, 2          # the (m, n) loop bounds
N = 64                             # matrix edge
CHUNK_ROWS, CHUNK_COLS = N // CHUNKS_X, N // CHUNKS_Y
CHUNK_BYTES = CHUNK_ROWS * CHUNK_COLS * 4


def scale_by_2(data, out):
    """The kernel: a module-level function, so any compute backend can
    run it by name over the bound buffers."""
    np.multiply(data, 2.0, out=out)


def compute_task(system, buffers):
    """Listing 3's compute_task: check the device, launch the kernel."""
    device = api.get_device()
    if device.kind is ProcessorKind.GPU:
        system.launch(device,
                      KernelCost(flops=buffers["in"].nbytes / 4,
                                 bytes_read=buffers["in"].nbytes,
                                 bytes_written=buffers["out"].nbytes),
                      reads=(buffers["in"],), writes=(buffers["out"],),
                      kernel=kernel_spec(
                          scale_by_2,
                          Binding.read("data", buffers["in"], np.float32),
                          Binding.update("out", buffers["out"], np.float32)),
                      label="scale-by-2")
    else:  # pragma: no cover - the APU leaf always has a GPU
        raise RuntimeError("expected a GPU at the leaf")


def index(m, n):
    """Listing 3's index(m, n): the byte offset of chunk (m, n)."""
    return (m * CHUNK_ROWS * N + n * CHUNK_COLS) * 4


def myfunction(ctx, system, inp, out):
    """Listing 3's myfunction: recursive, level-checked, chunked.
    ``northup_spawn`` makes ``ctx`` the ambient context."""
    if api.get_level() == api.get_max_treelevel():
        # Leaf: ctx.payload holds the buffers the parent set up.
        compute_task(system, ctx.payload)
        # data_up(): move the result back to the parent level.
        api.move_data_up(out, ctx.payload["out"], CHUNK_BYTES,
                         index(*ctx.chunk), rows=CHUNK_ROWS,
                         dst_stride=N * 4)
        return

    node = api.get_cur_treenode()
    for m in range(CHUNKS_X):
        for n in range(CHUNKS_Y):
            # setup_buffer(): allocate on the child node.
            child = api.get_children_list(node.node_id)[0]
            buffers = {
                "in": api.alloc(CHUNK_BYTES, child.node_id),
                "out": api.alloc(CHUNK_BYTES, child.node_id),
            }
            # data_down(): move this chunk to the child, its rows as
            # one 2-D copy.
            api.move_data_down(buffers["in"], inp, CHUNK_BYTES, 0, 0,
                               src_offset=index(m, n), rows=CHUNK_ROWS,
                               src_stride=N * 4)
            api.northup_spawn(myfunction, child, system, inp, out,
                              chunk=(m, n), payload=buffers)
            for handle in buffers.values():
                api.release(handle)


def main() -> None:
    system = System(apu_two_level(storage_capacity=16 * MB,
                                  staging_bytes=64 * KB))
    matrix = np.arange(N * N, dtype=np.float32).reshape(N, N)
    try:
        with api.northup_session(system) as root_ctx:
            root = api.get_cur_treenode()
            inp = api.alloc(matrix.nbytes, root.node_id, label="input")
            out = api.alloc(matrix.nbytes, root.node_id, label="output")
            system.preload(inp, matrix)

            myfunction(root_ctx, system, inp, out)

            result = system.fetch(out, np.float32, shape=(N, N))
            assert np.array_equal(result, 2.0 * matrix)
            print(f"verified: {CHUNKS_X}x{CHUNKS_Y} chunks of a "
                  f"{N}x{N} matrix doubled through the hierarchy")
            print(f"virtual runtime: {system.makespan() * 1e3:.3f} ms, "
                  f"{system.runtime_ops} runtime bookkeeping ops")
            api.release(inp)
            api.release(out)
    finally:
        system.close()


if __name__ == "__main__":
    main()
