"""Described operands: a pool kernel's read binding whose bytes are an
unmodified packed copy of a root file window travels as that window
(:class:`~repro.exec.pool.FileWindow`) and the worker reads the file
itself.

Covered here on both pools: a root window written (moved into,
preloaded, released) after the grant is dispatched leaves the kernel
seeing the bytes it had at dispatch; a staging buffer touched after its
fill falls back to a snapshot; every fill route (a move, a batched move
sweep, a cache fill) records what it copied; and a root file that is truncated or
removed behind the runtime's back fails the kernel with a typed error
naming the task-graph node and the file -- never wrong bytes, never a
hang, nothing left behind.

The fill itself is lazy: the coordinator reads the root window only
when something reads the staged copy (a host fetch, a write over the
root, the end of the run), and drops it unread on a release (a cache
block's at the end of the run), a covering refill or close; a level
drain leaves it pending.  The root backend's read bytes show which.
"""

import os
import threading

import numpy as np
import pytest

from repro.compute.processor import KernelCost
from repro.core.system import BatchMove, System
from repro.dist.executor import dist_residue
from repro.errors import TransferError
from repro.exec import Binding, ExecError, kernel_spec, shm_residue
from repro.memory.backends import FileBackend
from repro.memory.units import MB
from repro.topology.builders import apu_two_level
from tests.exec import exec_gauge, kernels

N = 4096                                  # float32 elements, 16 KiB
OLD = np.arange(N, dtype=np.float32)
NEW = np.full(N, -1.0, np.float32)


@pytest.fixture(params=["shm", "dist"])
def system(request, tmp_path):
    sys_ = System(apu_two_level(
        storage_capacity=16 * MB, staging_bytes=4 * MB,
        storage_backend=FileBackend(str(tmp_path / "root"))),
        executor=request.param)
    yield sys_
    sys_.close()
    assert shm_residue() == [] and dist_residue() == []


def _staged(sys_):
    """A root buffer holding ``OLD`` and a leaf staging copy of it."""
    leaf = sys_.tree.leaves()[0]
    root = sys_.alloc(OLD.nbytes, sys_.tree.root, label="root")
    sys_.preload(root, OLD)
    staging = sys_.alloc(OLD.nbytes, leaf, label="staging")
    sys_.move_down(staging, root, OLD.nbytes)
    return leaf, root, staging


def _count_root_reads(sys_):
    """A one-element list counting the bytes the coordinator reads from
    the root's file backend from now on."""
    backend = sys_.tree.root.device.backend
    count = [0]

    def counted(name, nbytes):
        method = getattr(backend, name)

        def wrapper(*args):
            count[0] += nbytes(*args)
            return method(*args)
        setattr(backend, name, wrapper)

    counted("read", lambda alloc_id, offset, nbytes: nbytes)
    counted("read_into", lambda alloc_id, offset, out: out.nbytes)
    counted("gather_2d", lambda alloc_id, offset, rows, row_bytes, *_:
            rows * row_bytes)
    return count


def _launch_copy(sys_, leaf, src, *, seconds=0.0, view=None):
    """``out = src`` on the leaf's GPU after ``seconds``; returns out."""
    out = sys_.alloc(OLD.nbytes, leaf, label="out")
    sys_.preload(out, np.zeros(N, np.float32))
    spec = kernel_spec(kernels.slow_axpy,
                       Binding.read("x", view or src, np.float32, (N,)),
                       Binding.update("y", out, np.float32, (N,)),
                       alpha=1.0, seconds=seconds)
    sys_.launch(leaf.processor_named("gpu-apu"),
                KernelCost(flops=1e3, bytes_read=0),
                reads=(view or src,), writes=(out,), kernel=spec)
    return out


# -- a root window written after dispatch ---------------------------------

@pytest.mark.parametrize("write", ["move", "preload", "release"])
def test_a_root_write_after_dispatch_leaves_the_kernel_the_old_bytes(
        system, write):
    leaf, root, staging = _staged(system)
    out = _launch_copy(system, leaf, staging, seconds=0.3)
    assert system.executor.stats.described == 1
    assert system.executor.stats.bytes_in == OLD.nbytes   # y alone
    if write == "move":         # deferred behind the reading kernel
        other = system.alloc(NEW.nbytes, leaf)
        system.preload(other, NEW)
        system.move_up(root, other, NEW.nbytes)
        assert exec_gauge(system, "deferred_copies") == 1
    elif write == "preload":    # waits for the reading kernel
        system.preload(root, NEW)
    else:                       # the file outlives the reading kernel
        system.release(root)
        assert system.dispatch.ledger.has_pending(
            (root.node_id, root.alloc_id))
    assert np.array_equal(system.fetch(out, np.float32), OLD)
    if write != "release":
        assert np.array_equal(system.fetch(root, np.float32), NEW)


# -- every fill route records its provenance ------------------------------

def _batch_filled(sys_, leaf, root):
    """A staging copy of ``root`` filled by two half moves in one batch."""
    staging = sys_.alloc(OLD.nbytes, leaf, label="staging")
    half = OLD.nbytes // 2
    sys_.move_down_batch([
        BatchMove(staging, root, half),
        BatchMove(staging, root, half, dst_offset=half, src_offset=half)])
    return staging


def _read_into_out(sys_, leaf, view):
    """Launch ``out = view`` on the leaf's GPU; returns ``out`` and its
    float count."""
    out = sys_.alloc(view.nbytes, leaf)
    n = view.nbytes // 4
    spec = kernel_spec(kernels.axpy,
                       Binding.read("x", view, np.float32, (n,)),
                       Binding.update("y", out, np.float32, (n,)),
                       alpha=1.0)
    sys_.launch(leaf.processor_named("gpu-apu"),
                KernelCost(flops=1e3, bytes_read=0), reads=(view,),
                writes=(out,), kernel=spec)
    return out, n


@pytest.mark.parametrize("route", ["move_down_batch", "fetch_down"])
def test_every_fill_route_describes_the_root_window(system, route):
    leaf = system.tree.leaves()[0]
    root = system.alloc(OLD.nbytes, system.tree.root, label="root")
    system.preload(root, OLD)
    if route == "move_down_batch":
        view = _batch_filled(system, leaf, root)
    else:                       # a cache fill of the explicit cache
        view = system.fetch_down(leaf, root, nbytes=OLD.nbytes)
    out, _ = _read_into_out(system, leaf, view)
    assert system.executor.stats.described == 1
    assert np.array_equal(system.fetch(out, np.float32), OLD)


def test_a_buffer_filled_by_two_moves_is_described_whole(system):
    leaf = system.tree.leaves()[0]
    root = system.alloc(OLD.nbytes, system.tree.root, label="root")
    system.preload(root, OLD)
    reads = _count_root_reads(system)
    out, _ = _read_into_out(system, leaf, _batch_filled(system, leaf, root))
    assert np.array_equal(system.fetch(out, np.float32), OLD)
    assert system.executor.stats.described == 1
    # The two contiguous fills extend one record; neither was forced.
    assert exec_gauge(system, "fills_deferred") == 2
    assert reads[0] == 0


# -- a staging buffer touched after its fill ------------------------------

def _touch(sys_, staging, how):
    if how == "preload":
        sys_.preload(staging, NEW[:8], offset=64)
    elif how == "host_array":
        arr, is_view = sys_.host_array(staging, np.float32, writable=True)
        assert is_view
        arr[16:24] = NEW[:8]
    else:                       # a write through a mapped view
        view = sys_.map_region(staging, 128, 64)
        sys_.preload(view, NEW[:16])
        sys_.release(view)


@pytest.mark.parametrize("how", ["preload", "host_array", "mapped view"])
def test_a_staging_buffer_touched_after_its_fill_is_snapshotted(system, how):
    leaf, root, staging = _staged(system)
    _touch(system, staging, how)
    want = system.fetch(staging, np.float32).copy()
    assert not np.array_equal(want, OLD)
    out = _launch_copy(system, leaf, staging)
    assert system.executor.stats.described == 0
    assert np.array_equal(system.fetch(out, np.float32), want)


def test_a_root_written_before_dispatch_is_snapshotted(system):
    leaf, root, staging = _staged(system)
    system.preload(root, NEW)
    out = _launch_copy(system, leaf, staging)
    assert system.executor.stats.described == 0
    assert np.array_equal(system.fetch(out, np.float32), OLD)


def test_a_window_of_the_fill_is_described_as_its_sub_window(system):
    leaf, root, staging = _staged(system)
    view = system.map_region(staging, 1024, N * 4 - 1024)
    out = system.alloc(view.nbytes, leaf)
    spec = kernel_spec(kernels.axpy,
                       Binding.read("x", view, np.float32, (N - 256,)),
                       Binding.update("y", out, np.float32, (N - 256,)),
                       alpha=1.0)
    system.launch(leaf.processor_named("gpu-apu"),
                  KernelCost(flops=1e3, bytes_read=0), reads=(view,),
                  writes=(out,), kernel=spec)
    assert system.executor.stats.described == 1
    assert np.array_equal(system.fetch(out, np.float32), OLD[256:])
    system.release(view)


# -- the fault contract -----------------------------------------------------

@pytest.mark.parametrize("fault", ["truncated", "removed"])
def test_a_root_file_gone_behind_the_runtime_fails_the_kernel_by_name(
        system, fault):
    leaf, root, staging = _staged(system)
    path = system.node_of(root).device.backend.path_of(
        root.alloc_id, 0, OLD.nbytes)
    if fault == "truncated":
        os.truncate(path, 1000)
    else:
        os.remove(path)
    system.executor.set_task_context(node_id=7)
    out = _launch_copy(system, leaf, staging)
    system.executor.set_task_context()
    assert system.executor.stats.described == 1
    with pytest.raises(ExecError) as err:
        system.fetch(out, np.float32)
    assert "task-graph node #7" in str(err.value)
    assert path in str(err.value)
    # No bytes merged: ``out`` still holds what it was preloaded with.
    assert not system.fetch(out, np.float32).any()


# -- lazy fills: a staged copy is made only when something reads it --------

def _fills(sys_):
    return (exec_gauge(sys_, "fills_deferred"),
            exec_gauge(sys_, "fills_dropped"))


def test_a_host_fetch_of_the_staged_buffer_reads_the_root_window(system):
    reads = _count_root_reads(system)
    _, _, staging = _staged(system)
    assert reads[0] == 0
    assert np.array_equal(system.fetch(staging, np.float32), OLD)
    assert reads[0] == OLD.nbytes
    assert _fills(system) == (1, 0)


@pytest.mark.parametrize("write", ["preload", "move_up"])
def test_a_root_write_after_the_fill_leaves_the_staged_copy_the_old_bytes(
        system, write):
    reads = _count_root_reads(system)
    leaf, root, staging = _staged(system)
    if write == "preload":      # settles the root: the fill runs first
        system.preload(root, NEW)
    else:                       # deferred behind the fill
        other = system.alloc(NEW.nbytes, leaf)
        system.preload(other, NEW)
        system.move_up(root, other, NEW.nbytes)
    assert np.array_equal(system.fetch(staging, np.float32), OLD)
    assert np.array_equal(system.fetch(root, np.float32), NEW)
    assert reads[0] == 2 * OLD.nbytes        # the fill, then the fetch
    assert _fills(system) == (1, 0)


def test_a_release_drops_the_fill_unread(system):
    reads = _count_root_reads(system)
    _, _, staging = _staged(system)
    system.release(staging)
    assert _fills(system) == (1, 1)
    assert not system.dispatch.ledger.active
    system.drain_exec()
    assert reads[0] == 0


def test_a_covering_refill_drops_the_first_fill(system):
    reads = _count_root_reads(system)
    leaf, root, staging = _staged(system)
    other = system.alloc(NEW.nbytes, system.tree.root)
    system.preload(other, NEW)
    system.move_down(staging, other, NEW.nbytes)
    assert _fills(system) == (2, 1)
    assert np.array_equal(system.fetch(staging, np.float32), NEW)
    assert reads[0] == NEW.nbytes


def test_a_described_kernel_leaves_its_fill_unrun_until_the_drain(system):
    reads = _count_root_reads(system)
    leaf, root, staging = _staged(system)
    out = _launch_copy(system, leaf, staging)
    assert system.executor.stats.described == 1
    assert np.array_equal(system.fetch(out, np.float32), OLD)
    assert system.dispatch.ledger.has_pending(
        (staging.node_id, staging.alloc_id))
    assert reads[0] == 0
    system.drain_exec()         # what a level end does: the fill stays
    assert system.dispatch.ledger.has_pending(
        (staging.node_id, staging.alloc_id))
    assert reads[0] == 0
    assert np.array_equal(system.fetch(staging, np.float32), OLD)
    assert reads[0] == OLD.nbytes       # the fetch ran it
    assert _fills(system) == (1, 0)


def _leased_read(sys_):
    """A described kernel reads a lease of the root window; the lease
    ends, a level drain and the run's end follow.  Returns ``out``."""
    leaf = sys_.tree.leaves()[0]
    root = sys_.alloc(OLD.nbytes, sys_.tree.root, label="root")
    sys_.preload(root, OLD)
    lease = sys_.fetch_down(leaf, root, nbytes=OLD.nbytes)
    out = _launch_copy(sys_, leaf, lease)
    sys_.fetch_release(lease)
    sys_.drain_exec()
    sys_.end_run()
    return sys_.fetch(out, np.float32)


def test_a_lease_only_a_described_kernel_read_is_dropped_at_end_run(
        system, tmp_path):
    reads = _count_root_reads(system)
    got = _leased_read(system)
    assert system.executor.stats.described == 1
    assert _fills(system) == (1, 1)
    assert reads[0] == 0
    with System(apu_two_level(
            storage_capacity=16 * MB, staging_bytes=4 * MB,
            storage_backend=FileBackend(str(tmp_path / "inline")))) as ref:
        assert np.array_equal(got, _leased_read(ref))


def test_the_ledger_is_empty_after_end_run(system):
    reads = _count_root_reads(system)
    leaf, root, staging = _staged(system)
    _launch_copy(system, leaf, staging)
    system.end_run()
    assert not system.dispatch.ledger.active
    assert reads[0] == OLD.nbytes
    assert _fills(system) == (1, 0)
    assert np.array_equal(system.fetch(staging, np.float32), OLD)


def _truncate_root(sys_, root):
    path = sys_.node_of(root).device.backend.path_of(
        root.alloc_id, 0, OLD.nbytes)
    os.truncate(path, 1000)
    return path


@pytest.mark.parametrize("executor", ["shm", "dist"])
def test_an_unread_fill_from_a_truncated_root_is_dropped_at_close(
        tmp_path, executor):
    fds = set(os.listdir("/proc/self/fd"))
    threads = set(threading.enumerate())
    sys_ = System(apu_two_level(
        storage_capacity=16 * MB, staging_bytes=4 * MB,
        storage_backend=FileBackend(str(tmp_path / "root"))),
        executor=executor)
    reads = _count_root_reads(sys_)
    _, root, _ = _staged(sys_)
    _truncate_root(sys_, root)
    sys_.close()
    assert reads[0] == 0
    assert _fills(sys_) == (1, 1)
    assert shm_residue() == [] and dist_residue() == []
    assert set(os.listdir("/proc/self/fd")) <= fds
    assert set(threading.enumerate()) <= threads


def test_a_fetch_of_a_fill_from_a_truncated_root_names_the_file(system):
    _, root, staging = _staged(system)
    path = _truncate_root(system, root)
    with pytest.raises(TransferError) as err:
        system.fetch(staging, np.float32)
    assert path in str(err.value)
    assert _fills(system) == (1, 0)
    assert not system.dispatch.ledger.active
