"""Aliasing contract: which data-plane APIs return views vs copies.

The zero-copy refactor makes the view/copy distinction load-bearing:
kernels mutate through views, so an API that documents "independent
copy" must never hand back aliased storage, and one that documents
"live view" must actually alias.  These tests pin the contract for
both backends and for the System-level accessors.
"""

import numpy as np
import pytest

from repro.memory.backends import FileBackend, MemBackend


@pytest.fixture(params=["mem", "file"])
def backend(request, tmp_path):
    if request.param == "mem":
        b = MemBackend()
    else:
        b = FileBackend(str(tmp_path / "store"))
    yield b
    b.close()


# -- backend-level contract --------------------------------------------------

def test_read_returns_independent_copy(backend):
    """``read`` is documented to return a copy: mutating the result
    must never reach the backing store, on any backend."""
    backend.create(1, 32)
    backend.write(1, 0, np.arange(32, dtype=np.uint8))
    out = backend.read(1, 0, 32)
    out[:] = 0
    np.testing.assert_array_equal(backend.read(1, 0, 32),
                                  np.arange(32, dtype=np.uint8))


def test_write_does_not_retain_caller_array(backend):
    """Mutating the source array after ``write`` returns must not
    change stored bytes (the backend copied, not aliased)."""
    backend.create(1, 16)
    src = np.full(16, 7, dtype=np.uint8)
    backend.write(1, 0, src)
    src[:] = 0
    assert backend.read(1, 0, 16).sum() == 7 * 16


def test_try_view_aliases_where_supported(backend):
    backend.create(1, 32)
    v = backend.try_view(1, 4, 8)
    if isinstance(backend, FileBackend):
        assert v is None           # files cannot expose live memory
        return
    assert v is not None and v.nbytes == 8
    v[:] = 9
    assert backend.read(1, 4, 8).sum() == 9 * 8
    # A second view of the same range aliases the first.
    v2 = backend.try_view(1, 4, 8)
    v2[0] = 1
    assert v[0] == 1


def test_try_view_2d_aliases_where_supported(backend):
    backend.create(1, 64)
    w = backend.try_view_2d(1, 0, rows=4, row_bytes=8, stride=16)
    if isinstance(backend, FileBackend):
        assert w is None
        return
    assert w is not None and w.shape == (4, 8)
    w[2, :] = 5
    assert backend.read(1, 32, 8).sum() == 5 * 8   # row 2 lives at offset 32
    assert backend.read(1, 24, 8).sum() == 0       # gap bytes untouched


def test_gather_2d_output_is_independent(backend):
    backend.create(1, 64)
    backend.write(1, 0, np.arange(64, dtype=np.uint8))
    out = np.empty((4, 8), dtype=np.uint8)
    backend.gather_2d(1, 0, rows=4, row_bytes=8, stride=16, out=out)
    out[:] = 0
    assert backend.read(1, 0, 1)[0] == 0  # value really was 0 at offset 0
    np.testing.assert_array_equal(backend.read(1, 1, 7),
                                  np.arange(1, 8, dtype=np.uint8))


def test_mem_backend_try_view_is_window_not_whole_buffer():
    b = MemBackend()
    b.create(1, 64)
    v = b.try_view(1, 16, 8)
    assert v.nbytes == 8
    v[:] = 3
    assert b.read(1, 0, 16).sum() == 0    # bytes before the window untouched
    assert b.read(1, 24, 40).sum() == 0   # and after
    b.close()


# -- System-level contract ---------------------------------------------------

@pytest.fixture(params=[False, True], ids=["mem_tree", "file_tree"])
def system(request, tmp_path):
    from repro.core.system import System
    from repro.topology.builders import apu_two_level
    backend = (FileBackend(str(tmp_path / "root_store"))
               if request.param else None)
    tree = (apu_two_level(storage_backend=backend) if backend
            else apu_two_level())
    s = System(tree)
    yield s
    s.close()


def test_fetch_returns_safe_copy(system):
    node = system.tree.root
    h = system.alloc(64, node, label="x")
    system.preload(h, np.arange(16, dtype=np.float32))
    got = system.fetch(h, np.float32, count=64)
    got[:] = -1.0
    np.testing.assert_array_equal(
        system.fetch(h, np.float32, count=64),
        np.arange(16, dtype=np.float32))
    system.release(h)


def test_view_array_writable_aliases_or_none(system):
    node = system.tree.root
    h = system.alloc(64, node, label="x")
    v = system.view_array(h, np.float32, count=64, writable=True)
    file_backed = isinstance(node.device.backend, FileBackend)
    if file_backed:
        assert v is None               # plain FileBackend: no live views
    else:
        v[:] = 2.5
        np.testing.assert_array_equal(
            system.fetch(h, np.float32, count=64),
            np.full(16, 2.5, dtype=np.float32))
    system.release(h)


def test_view_array_readonly_cannot_write_through(system):
    node = system.tree.root
    h = system.alloc(64, node, label="x")
    system.preload(h, np.arange(16, dtype=np.float32))
    v = system.view_array(h, np.float32, count=64, writable=False)
    if v is not None:
        assert not v.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            v[0] = 9.0
        np.testing.assert_array_equal(
            system.fetch(h, np.float32, count=64),
            np.arange(16, dtype=np.float32))
    system.release(h)


def test_view_array_writable_bumps_version(system):
    node = system.tree.root
    h = system.alloc(16, node, label="x")
    if system.view_array(h, np.float32, count=16, writable=True) is not None:
        before = h.version
        system.view_array(h, np.float32, count=16, writable=True)
        assert h.version > before
    system.release(h)


def test_host_array_flags_view_vs_copy(system):
    node = system.tree.root
    h = system.alloc(32, node, label="x")
    system.preload(h, np.arange(8, dtype=np.float32))
    arr, is_view = system.host_array(h, np.float32, count=32)
    np.testing.assert_array_equal(arr, np.arange(8, dtype=np.float32))
    file_backed = isinstance(node.device.backend, FileBackend)
    assert is_view == (not file_backed)
    system.release(h)
