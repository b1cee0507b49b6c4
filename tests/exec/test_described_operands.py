"""Described operands: a pool kernel's read binding whose bytes are an
unmodified packed copy of a root file window travels as that window
(:class:`~repro.exec.pool.FileWindow`) and the worker reads the file
itself.

Covered here on both pools: a root window written (moved into,
preloaded, released) after the grant is dispatched leaves the kernel
seeing the bytes it had at dispatch; a staging buffer touched after its
fill falls back to a snapshot; and a root file that is truncated or
removed behind the runtime's back fails the kernel with a typed error
naming the task-graph node and the file -- never wrong bytes, never a
hang, nothing left behind.
"""

import os

import numpy as np
import pytest

from repro.compute.processor import KernelCost
from repro.core.system import System
from repro.dist.executor import dist_residue
from repro.exec import Binding, ExecError, kernel_spec, shm_residue
from repro.memory.backends import FileBackend
from repro.memory.units import MB
from repro.topology.builders import apu_two_level
from tests.exec import kernels

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
        assert system._ledger.deferred_copies == 1
    elif write == "preload":    # waits for the reading kernel
        system.preload(root, NEW)
    else:                       # the file outlives the reading kernel
        system.release(root)
        assert system._ledger.has_pending((root.node_id, root.alloc_id))
    assert np.array_equal(system.fetch(out, np.float32), OLD)
    if write != "release":
        assert np.array_equal(system.fetch(root, np.float32), NEW)


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
