"""Unit and property tests for data backends (memory and file)."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, TransferError
from repro.memory.backends import FileBackend, MemBackend


@pytest.fixture(params=["mem", "file"])
def backend(request, tmp_path):
    if request.param == "mem":
        b = MemBackend()
    else:
        b = FileBackend(str(tmp_path / "store"))
    yield b
    b.close()


def test_create_read_write_roundtrip(backend):
    backend.create(1, 64)
    data = np.arange(16, dtype=np.uint8)
    backend.write(1, 8, data)
    out = backend.read(1, 8, 16)
    np.testing.assert_array_equal(out, data)
    # Untouched region stays zero.
    assert backend.read(1, 0, 8).sum() == 0
    assert backend.size_of(1) == 64


def test_write_accepts_bytes_and_ndarray(backend):
    backend.create(1, 32)
    backend.write(1, 0, b"\x01\x02\x03")
    backend.write(1, 3, np.array([4, 5], dtype=np.uint8))
    backend.write(1, 5, bytearray([6]))
    np.testing.assert_array_equal(backend.read(1, 0, 6),
                                  np.array([1, 2, 3, 4, 5, 6], dtype=np.uint8))


def test_write_noncontiguous_array(backend):
    backend.create(1, 16)
    arr = np.arange(32, dtype=np.uint8)[::2]  # strided view
    backend.write(1, 0, arr)
    np.testing.assert_array_equal(backend.read(1, 0, 16), np.ascontiguousarray(arr))


def test_multibyte_dtype_roundtrip(backend):
    backend.create(1, 40)
    vals = np.linspace(-1, 1, 10, dtype=np.float32)
    backend.write(1, 0, vals)
    out = backend.read(1, 0, 40).view(np.float32)
    np.testing.assert_array_equal(out, vals)


def test_out_of_bounds_rejected(backend):
    backend.create(1, 16)
    with pytest.raises(TransferError):
        backend.read(1, 8, 16)
    with pytest.raises(TransferError):
        backend.write(1, 10, np.zeros(8, dtype=np.uint8))
    with pytest.raises(TransferError):
        backend.read(1, -1, 4)


def test_unknown_id_rejected(backend):
    with pytest.raises(AllocationError):
        backend.read(99, 0, 1)
    with pytest.raises(AllocationError):
        backend.destroy(99)


def test_duplicate_create_rejected(backend):
    backend.create(1, 8)
    with pytest.raises(AllocationError):
        backend.create(1, 8)


def test_destroy_then_access_rejected(backend):
    backend.create(1, 8)
    backend.destroy(1)
    with pytest.raises(AllocationError):
        backend.read(1, 0, 1)


def test_mem_backend_view_is_zero_copy():
    b = MemBackend()
    b.create(1, 8)
    view = b.view(1)
    view[3] = 42
    assert b.read(1, 3, 1)[0] == 42


def test_file_backend_creates_sparse_files(tmp_path):
    b = FileBackend(str(tmp_path / "s"))
    b.create(1, 1 << 20)
    # Reading an unwritten sparse region returns zeros.
    assert b.read(1, 1 << 19, 64).sum() == 0
    b.close()


def test_file_backend_sync_writes(tmp_path):
    b = FileBackend(str(tmp_path / "s"), sync_writes=True)
    b.create(1, 16)
    b.write(1, 0, b"hello")
    assert bytes(b.read(1, 0, 5)) == b"hello"
    b.close()


def test_file_backend_close_removes_root(tmp_path):
    root = tmp_path / "s"
    b = FileBackend(str(root))
    b.create(1, 8)
    assert root.exists()
    b.close()
    assert not root.exists()


def test_file_backend_close_keeps_user_supplied_root(tmp_path):
    """A directory the backend did not create survives teardown."""
    root = tmp_path / "shared"
    root.mkdir()
    keep = root / "user_file.txt"
    keep.write_text("precious")
    b = FileBackend(str(root))
    b.create(1, 64)
    b.write(1, 0, b"abc")
    b.close()
    assert root.exists()
    assert keep.read_text() == "precious"
    # The backend's own buffer files are still removed.
    assert not list(root.glob("buf_*.bin"))


# -- pooled-fd path edge semantics -------------------------------------------

def test_pooled_fd_out_of_bounds_still_raises(tmp_path):
    """The fast paths must validate exactly like the old open-per-op
    path: no descriptor reuse may skip the range checks."""
    b = FileBackend(str(tmp_path / "s"))
    b.create(1, 16)
    b.read(1, 0, 16)  # warm the descriptor pool
    with pytest.raises(TransferError):
        b.read(1, 8, 16)
    with pytest.raises(TransferError):
        b.write(1, 10, np.zeros(8, dtype=np.uint8))
    with pytest.raises(TransferError):
        b.read_into(1, 12, np.empty(8, dtype=np.uint8))
    with pytest.raises(TransferError):
        b.gather_2d(1, 0, rows=4, row_bytes=4, stride=5,
                    out=np.empty((4, 4), dtype=np.uint8))
    with pytest.raises(TransferError):
        b.scatter_2d(1, 8, rows=2, row_bytes=4, stride=8,
                     data=np.zeros((2, 4), dtype=np.uint8))
    with pytest.raises(TransferError):
        b.gather_2d(1, 0, rows=2, row_bytes=4, stride=2,  # overlapping rows
                    out=np.empty((2, 4), dtype=np.uint8))
    b.close()


def test_a_truncated_file_raises_on_every_read_path(tmp_path):
    """A 16 KiB buffer whose file is cut to 1,000 B behind the
    backend's back: every read that reaches past the cut raises a
    TransferError naming the buffer, its file and the offset, instead of
    handing back zeros; reads inside what is left still work."""
    b = FileBackend(str(tmp_path / "s"))
    try:
        payload = np.arange(16 * 1024, dtype=np.uint32).astype(np.uint8)
        b.create(1, payload.size)
        b.write(1, 0, payload)
        path = b._paths[1]
        os.truncate(path, 1000)
        reads = {
            "read": lambda: b.read(1, 0, 4096),
            "read_into": lambda: b.read_into(1, 996, np.empty(8, np.uint8)),
            "dense gather": lambda: b.gather_2d(
                1, 512, 4, 256, 256, np.empty((4, 256), np.uint8)),
            "gapped gather": lambda: b.gather_2d(
                1, 0, 4, 200, 300, np.empty((4, 200), np.uint8)),
        }
        for name, read in reads.items():
            with pytest.raises(TransferError) as info:
                read()
            message = str(info.value)
            assert "buffer 1" in message and path in message, name
            assert "offset" in message and "1000" in message, name
        np.testing.assert_array_equal(b.read(1, 0, 1000), payload[:1000])
        inside = np.empty((3, 200), np.uint8)
        b.gather_2d(1, 0, 3, 200, 300, inside)
        np.testing.assert_array_equal(inside[2], payload[600:800])
    finally:
        b.close()


def test_sync_writes_fsync_on_pooled_fd(tmp_path, monkeypatch):
    """``sync_writes`` must reach ``fsync`` on the pooled-descriptor
    write paths (the paper's O_SYNC storage configuration)."""
    import repro.memory.backends as backends_mod
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(backends_mod.os, "fsync",
                        lambda fd: (calls.append(fd), real_fsync(fd))[1])
    b = FileBackend(str(tmp_path / "s"), sync_writes=True)
    b.create(1, 64)
    b.write(1, 0, b"hello")
    assert len(calls) == 1
    b.scatter_2d(1, 0, rows=2, row_bytes=4, stride=8,
                 data=np.ones((2, 4), dtype=np.uint8))
    assert len(calls) == 2
    b.close()

    b = FileBackend(str(tmp_path / "s2"), sync_writes=False)
    b.create(1, 16)
    b.write(1, 0, b"x")
    assert len(calls) == 2  # no fsync when the flag is off
    b.close()


def test_fd_pool_reuses_and_caps_descriptors(tmp_path):
    b = FileBackend(str(tmp_path / "s"), max_open_fds=2)
    for i in range(5):
        b.create(i, 16)
        b.write(i, 0, bytes([i + 1]))
    # Interleaved access far beyond the cap: every read stays correct
    # and the pool never exceeds two live descriptors.
    for _ in range(3):
        for i in range(5):
            assert b.read(i, 0, 1)[0] == i + 1
            assert b.open_fds <= 2
    opens_before = b._fds.opens
    b.read(4, 0, 1)  # id 4 is the most recent: served by the pool
    assert b._fds.opens == opens_before
    b.close()
    assert b.open_fds == 0


def test_fd_pool_single_buffer_opens_once(tmp_path):
    b = FileBackend(str(tmp_path / "s"))
    b.create(1, 1024)
    for i in range(50):
        b.write(1, i, bytes([i]))
        b.read(1, i, 1)
    assert b._fds.opens == 1
    b.close()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_random_writes_match_shadow_model(data):
    """Property: a backend behaves like a plain byte array."""
    size = data.draw(st.integers(min_value=1, max_value=256))
    b = MemBackend()
    b.create(1, size)
    shadow = np.zeros(size, dtype=np.uint8)
    for _ in range(data.draw(st.integers(min_value=0, max_value=20))):
        off = data.draw(st.integers(min_value=0, max_value=size - 1))
        ln = data.draw(st.integers(min_value=0, max_value=size - off))
        payload = data.draw(st.binary(min_size=ln, max_size=ln))
        b.write(1, off, payload)
        shadow[off:off + ln] = np.frombuffer(payload, dtype=np.uint8)
        np.testing.assert_array_equal(b.read(1, 0, size), shadow)
