"""Unit tests for the System: Table I's unified data management."""

import numpy as np
import pytest

from repro.core.system import RUNTIME_OP_COST, System, _transfer_phase
from repro.errors import AllocationError, CapacityError, TransferError
from repro.exec.base import Binding, kernel_spec
from repro.memory.device import StorageKind
from repro.memory.units import MB
from repro.sim.trace import Phase
from repro.topology.builders import (apu_two_level, discrete_gpu_three_level,
                                     figure2_asymmetric)
from tests.exec import kernels


@pytest.fixture
def apu():
    sys_ = System(apu_two_level(storage="ssd", storage_capacity=64 * MB,
                                staging_bytes=16 * MB))
    yield sys_
    sys_.close()


def test_alloc_release_capacity(apu):
    root = apu.tree.root
    h = apu.alloc(1 * MB, root, label="input")
    assert root.used == 1 * MB
    apu.release(h)
    assert root.used == 0
    with pytest.raises(AllocationError):
        apu.release(h)


def test_alloc_respects_capacity(apu):
    leaf = apu.tree.leaves()[0]
    apu.alloc(10 * MB, leaf)
    with pytest.raises(CapacityError):
        apu.alloc(10 * MB, leaf)


def test_alloc_charges_setup_phase(apu):
    apu.alloc(1024, apu.tree.root)
    bd = apu.breakdown()
    assert bd.by_phase[Phase.SETUP] > 0
    assert bd.runtime > 0


def test_transfer_phase_dispatch():
    # Listing 4's (src kind, dst kind) -> operation table.
    F, M, G = StorageKind.FILE, StorageKind.MEM, StorageKind.GPU_DEVICE
    assert _transfer_phase(F, M) is Phase.IO_READ
    assert _transfer_phase(M, F) is Phase.IO_WRITE
    assert _transfer_phase(F, F) is Phase.IO_WRITE
    assert _transfer_phase(M, G) is Phase.DEV_TRANSFER
    assert _transfer_phase(G, M) is Phase.DEV_TRANSFER
    assert _transfer_phase(M, M) is Phase.MEM_COPY


def test_move_down_and_up_roundtrip(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    src = apu.alloc(1024, root)
    dst = apu.alloc(1024, leaf)
    data = np.arange(1024, dtype=np.uint8)
    apu.preload(src, data)
    res = apu.move_down(dst, src, 1024)
    assert res.hops == 1 and res.nbytes == 1024
    np.testing.assert_array_equal(apu.fetch(dst, np.uint8), data)
    back = apu.alloc(1024, root)
    apu.move_up(back, dst, 1024)
    np.testing.assert_array_equal(apu.fetch(back, np.uint8), data)


def test_move_offsets(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    src = apu.alloc(100, root)
    dst = apu.alloc(100, leaf)
    apu.preload(src, np.arange(100, dtype=np.uint8))
    apu.move_down(dst, src, 10, dst_offset=50, src_offset=20)
    out = apu.fetch(dst, np.uint8)
    np.testing.assert_array_equal(out[50:60], np.arange(20, 30, dtype=np.uint8))
    assert out[:50].sum() == 0


def test_move_bounds_checked(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    src = apu.alloc(64, root)
    dst = apu.alloc(64, leaf)
    with pytest.raises(TransferError):
        apu.move(dst, src, 100)
    with pytest.raises(TransferError):
        apu.move(dst, src, 10, dst_offset=60)
    with pytest.raises(TransferError):
        apu.move(dst, src, -1)


def test_move_direction_asserted(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    a = apu.alloc(64, root)
    b = apu.alloc(64, leaf)
    with pytest.raises(TransferError):
        apu.move_down(a, b, 64)  # dst is the parent: wrong direction
    with pytest.raises(TransferError):
        apu.move_up(b, a, 64)


def test_move_up_errors_name_move_up(apu):
    leaf = apu.tree.leaves()[0]
    a, b = apu.alloc(64, leaf), apu.alloc(64, leaf)
    with pytest.raises(TransferError, match=r"^move_up: nodes 1 and 1 "):
        apu.move_up(a, b, 64)
    with pytest.raises(TransferError, match=r"^move_down: nodes 1 and 1 "):
        apu.move_down(a, b, 64)


def test_io_read_charged_at_ssd_bandwidth(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    src = apu.alloc(14 * MB, root)
    dst = apu.alloc(14 * MB, leaf)
    res = apu.move_down(dst, src, 14 * MB)
    # 14 MB at the SSD's 1400 MB/s read bandwidth = 10 ms (+latencies).
    assert res.duration == pytest.approx(0.010, rel=0.05)
    bd = apu.breakdown()
    assert bd.by_phase[Phase.IO_READ] == pytest.approx(res.duration)


def test_io_write_slower_than_read(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    a = apu.alloc(6 * MB, root)
    b = apu.alloc(6 * MB, leaf)
    down = apu.move_down(b, a, 6 * MB)
    up = apu.move_up(a, b, 6 * MB)
    # SSD write at 600 MB/s vs read at 1400 MB/s.
    assert up.duration > 2 * down.duration


def test_same_node_copy(apu):
    leaf = apu.tree.leaves()[0]
    a = apu.alloc(1024, leaf)
    b = apu.alloc(1024, leaf)
    apu.preload(a, np.full(1024, 9, dtype=np.uint8))
    res = apu.move(b, a, 1024)
    assert res.hops == 1
    assert apu.fetch(b, np.uint8).sum() == 9 * 1024
    assert apu.breakdown().by_phase[Phase.MEM_COPY] > 0


def test_multi_hop_move_charges_each_edge():
    sys_ = System(discrete_gpu_three_level(storage_capacity=64 * MB,
                                           staging_bytes=16 * MB,
                                           gpu_mem_bytes=16 * MB))
    try:
        root = sys_.tree.root
        gpu_leaf = sys_.tree.leaves()[0]
        src = sys_.alloc(1 * MB, root)
        dst = sys_.alloc(1 * MB, gpu_leaf)
        sys_.preload(src, np.arange(1 * MB, dtype=np.uint8) % 251)
        res = sys_.move(dst, src, 1 * MB)
        assert res.hops == 2  # disk -> dram -> gpu mem
        bd = sys_.breakdown()
        assert bd.io > 0 and bd.dev_transfer > 0
        np.testing.assert_array_equal(
            sys_.fetch(dst, np.uint8), np.arange(1 * MB, dtype=np.uint8) % 251)
    finally:
        sys_.close()


def test_cross_subtree_move_routes_via_lca():
    sys_ = System(figure2_asymmetric())
    try:
        n6, n4 = sys_.tree.node(6), sys_.tree.node(4)
        a = sys_.alloc(1024, n6)
        b = sys_.alloc(1024, n4)
        sys_.preload(a, np.full(1024, 3, dtype=np.uint8))
        res = sys_.move(b, a, 1024)
        # 6 -> 3 -> 1 -> 0 -> 2 -> 4: five edges.
        assert res.hops == 5
        assert sys_.fetch(b, np.uint8)[0] == 3
    finally:
        sys_.close()


def test_launch_runs_kernel_and_charges_processor(apu):
    leaf = apu.tree.leaves()[0]
    gpu = leaf.processor_named("gpu-apu")
    buf = apu.alloc(4096, leaf)

    from repro.compute.processor import KernelCost
    done = apu.launch(gpu, KernelCost(flops=737e9 * 0.5, bytes_read=0,
                                      efficiency=1.0),
                      writes=(buf,),
                      kernel=kernel_spec(kernels.fill,
                                         Binding.update("out", buf, np.uint8),
                                         value=7))
    assert (apu.fetch(buf, np.uint8) == 7).all()
    assert apu.executor.stats.submitted == 1
    assert done.duration == pytest.approx(0.5, rel=0.01)
    assert buf.ready_at == pytest.approx(done.end)
    assert apu.breakdown().gpu == pytest.approx(done.duration)


def test_launch_rejects_remote_buffers(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    gpu = leaf.processor_named("gpu-apu")
    remote = apu.alloc(64, root)
    from repro.compute.processor import KernelCost
    with pytest.raises(TransferError):
        apu.launch(gpu, KernelCost(flops=1, bytes_read=0), reads=(remote,))


def test_launch_rejects_undeclared_kernel_bindings(apu):
    """Every binding must be declared -- a read one in ``reads`` or
    ``writes``, a writable one in ``writes`` -- or the node check and
    the hazard bookkeeping never see it."""
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    gpu = leaf.processor_named("gpu-apu")
    from repro.compute.processor import KernelCost
    cost = KernelCost(flops=1, bytes_read=0)
    local, remote = apu.alloc(64, leaf), apu.alloc(64, root)

    def fill(buf):
        return kernel_spec(kernels.fill, Binding.update("out", buf, np.uint8),
                           value=1)
    with pytest.raises(TransferError,
                       match=f"'out' to buffer #{local.buffer_id}.* writes"):
        apu.launch(gpu, cost, reads=(local,), kernel=fill(local))
    with pytest.raises(TransferError, match=f"#{remote.buffer_id}"):
        apu.launch(gpu, cost, writes=(local,), kernel=fill(remote))
    axpy = kernel_spec(kernels.axpy, Binding.read("x", remote, np.float32),
                       Binding.update("y", local, np.float32), alpha=1.0)
    with pytest.raises(TransferError, match="'x'.*reads or writes"):
        apu.launch(gpu, cost, writes=(local,), kernel=axpy)
    assert apu.executor.stats.submitted == 0
    assert (apu.fetch(remote, np.uint8) == 0).all()


def test_launch_waits_for_input(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    gpu = leaf.processor_named("gpu-apu")
    src = apu.alloc(14 * MB, root)
    dst = apu.alloc(14 * MB, leaf)
    move = apu.move_down(dst, src, 14 * MB)
    from repro.compute.processor import KernelCost
    done = apu.launch(gpu, KernelCost(flops=1e6, bytes_read=0), reads=(dst,))
    assert done.start >= move.end


def test_pipeline_overlap_with_two_buffer_sets(apu):
    """Double buffering: the second load overlaps the first kernel."""
    from repro.compute.processor import KernelCost
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    gpu = leaf.processor_named("gpu-apu")
    src = apu.alloc(8 * MB, root)
    bufs = [apu.alloc(4 * MB, leaf) for _ in range(2)]
    cost = KernelCost(flops=737e9 * 0.05, bytes_read=0, efficiency=1.0)

    m0 = apu.move_down(bufs[0], src, 4 * MB, src_offset=0)
    k0 = apu.launch(gpu, cost, reads=(bufs[0],))
    m1 = apu.move_down(bufs[1], src, 4 * MB, src_offset=4 * MB)
    k1 = apu.launch(gpu, cost, reads=(bufs[1],))
    assert m1.start < k0.end          # overlap achieved
    assert k1.start >= m1.end
    # Third chunk reusing buffer 0 must wait until kernel 0 released it.
    m2 = apu.move_down(bufs[0], src, 4 * MB)
    assert m2.start >= k0.end


def test_runtime_ops_counted(apu):
    before = apu.runtime_ops
    h = apu.alloc(64, apu.tree.root)
    apu.release(h)
    assert apu.runtime_ops > before
    assert apu.breakdown().runtime == pytest.approx(
        (apu.runtime_ops - before) * RUNTIME_OP_COST, rel=1e-6)


def test_reset_time_keeps_contents(apu):
    root = apu.tree.root
    h = apu.alloc(64, root)
    apu.preload(h, np.full(64, 5, dtype=np.uint8))
    apu.makespan()
    apu.reset_time()
    assert apu.makespan() == 0.0
    assert h.ready_at == 0.0
    assert apu.fetch(h, np.uint8)[0] == 5


def test_fetch_typed_views(apu):
    leaf = apu.tree.leaves()[0]
    h = apu.alloc(64, leaf)
    vals = np.arange(8, dtype=np.float32)
    apu.preload(h, vals)
    np.testing.assert_array_equal(apu.fetch(h, np.float32, shape=(2, 4)),
                                  vals.reshape(2, 4))
    np.testing.assert_array_equal(apu.fetch(h, np.float32, count=32),
                                  vals)


@pytest.mark.parametrize("access", ["fetch", "view_array", "host_array"])
def test_partial_element_window_is_a_transfer_error(apu, access):
    """A byte count that is not a whole number of elements names the
    handle instead of surfacing NumPy's reshape error."""
    h = apu.alloc(64, apu.tree.leaves()[0], label="odd")
    with pytest.raises(TransferError, match="odd"):
        getattr(apu, access)(h, np.float32, count=6)
    with pytest.raises(TransferError, match="whole number"):
        getattr(apu, access)(h, np.float64, offset=4)


def test_move_2d_block_transfer(apu):
    """A strided sub-block moves as one charged operation."""
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    parent = apu.alloc(8 * 8 * 4, root)          # 8x8 float32
    child = apu.alloc(3 * 4 * 4, leaf)           # 3x4 float32 tile
    grid = np.arange(64, dtype=np.float32).reshape(8, 8)
    apu.preload(parent, grid)
    # Extract rows 2..5, cols 1..5.
    res = apu.move_2d(child, parent, rows=3, row_bytes=16,
                      src_offset=(2 * 8 + 1) * 4, src_stride=8 * 4,
                      dst_offset=0, dst_stride=4 * 4)
    assert res.nbytes == 48
    np.testing.assert_array_equal(apu.fetch(child, np.float32, shape=(3, 4)),
                                  grid[2:5, 1:5])
    # One IO_READ interval carrying the whole payload (not per-row).
    reads = [iv for iv in apu.timeline.trace if iv.phase is Phase.IO_READ]
    assert len(reads) == 1 and reads[0].nbytes == 48


def test_move_2d_bounds_and_stride_checks(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    parent = apu.alloc(256, root)
    child = apu.alloc(64, leaf)
    with pytest.raises(TransferError):
        apu.move_2d(child, parent, rows=10, row_bytes=16, src_offset=0,
                    src_stride=32, dst_offset=0, dst_stride=16)
    with pytest.raises(TransferError, match="overlap"):
        apu.move_2d(child, parent, rows=2, row_bytes=16, src_offset=0,
                    src_stride=8, dst_offset=0, dst_stride=16)
    with pytest.raises(TransferError):
        apu.move_2d(child, parent, rows=-1, row_bytes=16, src_offset=0,
                    src_stride=16, dst_offset=0, dst_stride=16)


@pytest.mark.parametrize("entry", ["move", "move_2d"])
def test_empty_window_is_still_bounds_checked(apu, entry):
    """Both entry points share one window check, which an empty window
    does not skip: a negative offset would reach a mapped window's
    parent bytes whatever the size."""
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    parent = apu.alloc(256, root)
    child = apu.alloc(64, leaf)
    move = {
        "move": lambda **at: apu.move(child, parent, 0, **at),
        "move_2d": lambda **at: apu.move_2d(
            child, parent, rows=0, row_bytes=16, src_stride=16,
            dst_stride=16, **at),
    }[entry]
    with pytest.raises(TransferError, match="out of bounds"):
        move(src_offset=-64, dst_offset=0)
    with pytest.raises(TransferError, match="out of bounds"):
        move(src_offset=0, dst_offset=65)
    assert move(src_offset=256, dst_offset=64).nbytes == 0


def test_fetch_down_takes_one_form(apu):
    """``nbytes`` and the ``rows`` form are exclusive: passing both
    used to return a lease shaped by ``rows`` alone."""
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    src = apu.alloc(1024, root)
    with pytest.raises(TransferError, match="either"):
        apu.fetch_down(leaf, src, nbytes=1024, rows=2, row_bytes=16,
                       src_stride=32)
    with pytest.raises(TransferError, match="either"):
        apu.fetch_down(leaf, src)
    with pytest.raises(TransferError, match="either"):
        apu.fetch_down(leaf, src, rows=2, row_bytes=16)


def test_move_2d_writes_back_up(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    big = apu.alloc(6 * 6 * 4, root)
    tile = apu.alloc(2 * 2 * 4, leaf)
    apu.preload(tile, np.array([[1, 2], [3, 4]], dtype=np.float32))
    apu.move_2d(big, tile, rows=2, row_bytes=8,
                src_offset=0, src_stride=8,
                dst_offset=(1 * 6 + 1) * 4, dst_stride=6 * 4)
    out = apu.fetch(big, np.float32, shape=(6, 6))
    np.testing.assert_array_equal(out[1:3, 1:3],
                                  np.array([[1, 2], [3, 4]], dtype=np.float32))
    assert out.sum() == 10


def test_wall_stats_track_physical_movement(apu):
    root, leaf = apu.tree.root, apu.tree.leaves()[0]
    src = apu.alloc(1 * MB, root)
    dst = apu.alloc(1 * MB, leaf)
    before = apu.wall.bytes_moved
    apu.move_down(dst, src, 1 * MB)
    assert apu.wall.bytes_moved == before + 1 * MB
    assert apu.wall.ops >= 1
    assert apu.wall.physical_seconds >= 0.0
