#!/usr/bin/env python
"""The paper's Listing 3, line for line.

This example writes a Northup program against the module-level
functional API (`repro.core.api`) so that it reads like the paper's
pseudocode: `get_cur_treenode()`, `alloc(size, node)`,
`move_data_down(...)`, `northup_spawn` (here: `ctx.descend` +
recursion), `move_data_up(...)`.  The "algorithm" scales a matrix by 2
chunk by chunk -- deliberately trivial so the structure is the star.

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


def myfunction(system, ctx, inp, out):
    """Listing 3's myfunction: recursive, level-checked, chunked."""
    with api.use_context(ctx):
        if api.get_level() == api.get_max_treelevel():
            # Leaf: ctx.payload holds the buffers the parent set up.
            compute_task(system, ctx.payload)
            return

        node = api.get_cur_treenode()
        chunk_rows = N // CHUNKS_X
        chunk_cols = N // CHUNKS_Y
        chunk_bytes = chunk_rows * chunk_cols * 4
        for m in range(CHUNKS_X):
            for n in range(CHUNKS_Y):
                # setup_buffer(): allocate on the child node.
                child = api.get_children_list(node.node_id)[0]
                buffers = {
                    "in": api.alloc(chunk_bytes, child.node_id),
                    "out": api.alloc(chunk_bytes, child.node_id),
                }
                # data_down(): move this chunk to the child.  index(m, n)
                # locates the chunk; rows are moved with a 2-D copy.
                system.move_2d(buffers["in"], inp, rows=chunk_rows,
                               row_bytes=chunk_cols * 4,
                               src_offset=(m * chunk_rows * N
                                           + n * chunk_cols) * 4,
                               src_stride=N * 4,
                               dst_offset=0, dst_stride=chunk_cols * 4)
                # northup_spawn(myfunction(...)):
                child_ctx = ctx.descend(child, chunk=(m, n), payload=buffers)
                myfunction(system, child_ctx, inp, out)
                # data_up(): move the result back to this level.
                system.move_2d(out, buffers["out"], rows=chunk_rows,
                               row_bytes=chunk_cols * 4,
                               src_offset=0, src_stride=chunk_cols * 4,
                               dst_offset=(m * chunk_rows * N
                                           + n * chunk_cols) * 4,
                               dst_stride=N * 4)
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

            myfunction(system, root_ctx, inp, out)

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
