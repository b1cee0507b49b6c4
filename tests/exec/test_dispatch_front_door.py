"""Golden record of the seven dispatch outcomes.

Each outcome is one small program on a fresh two-level APU tree over a
file-backed root, run under every compute backend:

* a kernel read of a staged root window (described on the pools), and
  one of a staged copy touched after its fill (snapshotted);
* an ``update`` binding merging into prior contents;
* a ``move_up`` out of a kernel's pending output (deferred on the pools);
* a staged copy released unread (its lazy fill dropped on the pools);
* a release of a kernel's pending output (a zombie free on the pools);
* a host fetch that settles a kernel's pending merge.

For each, the result bytes, the bytes read from the root's files, the
ledger's ``exec_*`` gauges and the executor's counters are fixed here,
so a change to when a physical byte lands shows up as a diff.  Every
outcome ends with its effects read or released, never with a fill left
for a drain to run.
"""

import numpy as np
import pytest

from repro.compute.processor import KernelCost
from repro.core.system import System
from repro.exec import Binding, kernel_spec
from repro.memory.backends import FileBackend
from repro.memory.units import MB
from repro.topology.builders import apu_two_level
from tests.exec import kernels

N = 1024                                  # float32 elements, 4 KiB
NB = N * 4
OLD = np.arange(N, dtype=np.float32)
NEW = np.full(8, -1.0, np.float32)
GAUGES = ("deferred_copies", "fills_deferred", "fills_dropped",
          "zombie_frees")
STATS = ("submitted", "completed", "described", "bytes_in", "bytes_out")


def _staged(sys_):
    leaf = sys_.tree.leaves()[0]
    root = sys_.alloc(NB, sys_.tree.root, label="root")
    sys_.preload(root, OLD)
    staging = sys_.alloc(NB, leaf, label="staging")
    sys_.move_down(staging, root, NB)
    return leaf, root, staging


def _leaf_buffer(sys_, arr):
    leaf = sys_.tree.leaves()[0]
    buf = sys_.alloc(arr.nbytes, leaf)
    sys_.preload(buf, arr)
    return leaf, buf


def _axpy(sys_, leaf, x, y, alpha=1.0):
    spec = kernel_spec(kernels.axpy, Binding.read("x", x, np.float32, (N,)),
                       Binding.update("y", y, np.float32, (N,)), alpha=alpha)
    sys_.launch(leaf.processor_named("gpu-apu"),
                KernelCost(flops=1e3, bytes_read=0), reads=(x,),
                writes=(y,), kernel=spec)


def _fill(sys_, leaf, buf, value):
    spec = kernel_spec(kernels.fill,
                       Binding.update("out", buf, np.float32, (N,)),
                       value=value)
    sys_.launch(leaf.processor_named("gpu-apu"),
                KernelCost(flops=1e3, bytes_read=0), writes=(buf,),
                kernel=spec)


def described_read(sys_):
    leaf, _, staging = _staged(sys_)
    _, out = _leaf_buffer(sys_, np.zeros(N, np.float32))
    _axpy(sys_, leaf, staging, out)
    return sys_.fetch(out, np.float32)


def snapshotted_read(sys_):
    leaf, _, staging = _staged(sys_)
    sys_.preload(staging, NEW, offset=64)
    _, out = _leaf_buffer(sys_, np.zeros(N, np.float32))
    _axpy(sys_, leaf, staging, out)
    return sys_.fetch(out, np.float32)


def update_merge(sys_):
    leaf, x = _leaf_buffer(sys_, OLD)
    _, y = _leaf_buffer(sys_, np.ones(N, np.float32))
    _axpy(sys_, leaf, x, y, alpha=2.0)
    return sys_.fetch(y, np.float32)


def deferred_move_up(sys_):
    leaf, out = _leaf_buffer(sys_, np.zeros(N, np.float32))
    _fill(sys_, leaf, out, 5.0)
    root = sys_.alloc(NB, sys_.tree.root)
    sys_.move_up(root, out, NB)
    return sys_.fetch(root, np.float32)


def fill_dropped_at_release(sys_):
    _, root, staging = _staged(sys_)
    sys_.release(staging)
    return sys_.fetch(root, np.float32)


def zombie_free(sys_):
    leaf, out = _leaf_buffer(sys_, np.zeros(N, np.float32))
    _fill(sys_, leaf, out, 3.0)
    sys_.release(out)
    sys_.drain_exec()
    return np.zeros(0, np.float32)


def fetch_settles(sys_):
    leaf, out = _leaf_buffer(sys_, np.zeros(N, np.float32))
    _fill(sys_, leaf, out, 7.0)
    return sys_.fetch(out, np.float32)


OUTCOMES = {f.__name__: f for f in (
    described_read, snapshotted_read, update_merge, deferred_move_up,
    fill_dropped_at_release, zombie_free, fetch_settles)}

SNAPPED = OLD.copy()
SNAPPED[16:24] = -1.0
#: outcome -> result bytes (as float32), the same under every backend.
RESULTS = {
    "described_read": OLD,
    "snapshotted_read": SNAPPED,
    "update_merge": 1.0 + 2.0 * OLD,
    "deferred_move_up": np.full(N, 5.0, np.float32),
    "fill_dropped_at_release": OLD,
    "zombie_free": np.zeros(0, np.float32),
    "fetch_settles": np.full(N, 7.0, np.float32),
}

#: (backend, outcome) -> (root file bytes read, ledger gauges, stats).
GOLDEN = {
    ("inline", "described_read"):
        (4096, (0, 0, 0, 0), (1, 1, 0, 0, 0)),
    ("inline", "snapshotted_read"):
        (4096, (0, 0, 0, 0), (1, 1, 0, 0, 0)),
    ("inline", "update_merge"):
        (0, (0, 0, 0, 0), (1, 1, 0, 0, 0)),
    ("inline", "deferred_move_up"):
        (4096, (0, 0, 0, 0), (1, 1, 0, 0, 0)),
    ("inline", "fill_dropped_at_release"):
        (8192, (0, 0, 0, 0), (0, 0, 0, 0, 0)),
    ("inline", "zombie_free"):
        (0, (0, 0, 0, 0), (1, 1, 0, 0, 0)),
    ("inline", "fetch_settles"):
        (0, (0, 0, 0, 0), (1, 1, 0, 0, 0)),
    ("shm", "described_read"):
        (0, (0, 1, 0, 0), (1, 1, 1, 4096, 4096)),
    ("shm", "snapshotted_read"):
        (4096, (0, 1, 0, 0), (1, 1, 0, 8192, 4096)),
    ("shm", "update_merge"):
        (0, (0, 0, 0, 0), (1, 1, 0, 8192, 4096)),
    ("shm", "deferred_move_up"):
        (4096, (1, 0, 0, 0), (1, 1, 0, 4096, 4096)),
    ("shm", "fill_dropped_at_release"):
        (4096, (0, 1, 1, 0), (0, 0, 0, 0, 0)),
    ("shm", "zombie_free"):
        (0, (0, 0, 0, 1), (1, 1, 0, 4096, 4096)),
    ("shm", "fetch_settles"):
        (0, (0, 0, 0, 0), (1, 1, 0, 4096, 4096)),
    ("dist", "described_read"):
        (0, (0, 1, 0, 0), (1, 1, 1, 4096, 4096)),
    ("dist", "snapshotted_read"):
        (4096, (0, 1, 0, 0), (1, 1, 0, 8192, 4096)),
    ("dist", "update_merge"):
        (0, (0, 0, 0, 0), (1, 1, 0, 8192, 4096)),
    ("dist", "deferred_move_up"):
        (4096, (1, 0, 0, 0), (1, 1, 0, 4096, 4096)),
    ("dist", "fill_dropped_at_release"):
        (4096, (0, 1, 1, 0), (0, 0, 0, 0, 0)),
    ("dist", "zombie_free"):
        (0, (0, 0, 0, 1), (1, 1, 0, 4096, 4096)),
    ("dist", "fetch_settles"):
        (0, (0, 0, 0, 0), (1, 1, 0, 4096, 4096)),
}


def _count_root_reads(sys_):
    """A one-element list counting the bytes read from the root's file
    backend from now on."""
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


def run_outcome(backend, outcome, tmp_path):
    sys_ = System(apu_two_level(
        storage_capacity=16 * MB, staging_bytes=4 * MB,
        storage_backend=FileBackend(str(tmp_path / "root"))),
        executor=backend)
    try:
        reads = _count_root_reads(sys_)
        result = OUTCOMES[outcome](sys_)
        snap = sys_.metrics.snapshot()
        gauges = tuple(snap[f"exec_{name}"][0]["value"] for name in GAUGES)
        assert all(snap[f"exec_{name}"][0]["labels"] == {"backend": backend}
                   for name in GAUGES)
        stats = sys_.executor.stats
        return (result, reads[0], gauges,
                tuple(getattr(stats, name) for name in STATS))
    finally:
        sys_.close()


@pytest.mark.parametrize("outcome", list(OUTCOMES))
@pytest.mark.parametrize("backend", ["inline", "shm", "dist"])
def test_dispatch_outcome(backend, outcome, tmp_path):
    result, *record = run_outcome(backend, outcome, tmp_path)
    np.testing.assert_array_equal(result, RESULTS[outcome])
    assert tuple(record) == GOLDEN[backend, outcome]
