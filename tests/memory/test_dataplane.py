"""Equivalence tests for the zero-copy data plane.

Every fast path in ``Device.copy_into`` / ``copy_into_2d`` -- the
Listing 4 dispatch on (src storage, dst storage) -- must produce bytes
identical to the retained naive reference in ``tests/reference/naive_plane``.
The tests sweep all four backend pairs and the stride regimes that
select different file I/O strategies (contiguous, dense span, sparse
span forced onto the per-row descriptor path).
"""

import numpy as np
import pytest

from repro.core.buffers import ArrayPool
from repro.memory.backends import FileBackend, MemBackend
from repro.memory.device import Device, DeviceSpec, StorageKind
from tests.reference import naive_plane as reference


def _device(name, backend):
    spec = DeviceSpec(name=name, kind=StorageKind.MEM, capacity=1 << 24,
                      read_bw=1e9, write_bw=1e9)
    return Device(spec=spec, backend=backend)


def _make(kind, tmp_path, tag, **kw):
    if kind == "mem":
        return MemBackend()
    return FileBackend(str(tmp_path / f"store_{tag}"), **kw)


PAIRS = [("mem", "mem"), ("mem", "file"), ("file", "mem"), ("file", "file")]


@pytest.fixture(params=PAIRS, ids=["m2m", "m2f", "f2m", "f2f"])
def devices(request, tmp_path):
    src_kind, dst_kind = request.param
    src = _device("src", _make(src_kind, tmp_path, "src"))
    dst = _device("dst", _make(dst_kind, tmp_path, "dst"))
    yield src, dst
    src.backend.close()
    dst.backend.close()


def _fill(device, alloc_id, nbytes, seed):
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, nbytes).astype(np.uint8)
    device.backend.create(alloc_id, nbytes)
    device.backend.write(alloc_id, 0, payload)
    return payload


def test_copy_into_matches_reference(devices):
    src, dst = devices
    _fill(src, 1, 4096, seed=1)
    _fill(dst, 1, 4096, seed=2)
    # Mirror dst into a second pair of allocations driven by the naive
    # path, then compare the full buffers.
    _fill(src, 2, 4096, seed=1)
    _fill(dst, 2, 4096, seed=2)

    for s_off, d_off, n in [(0, 0, 4096), (100, 200, 1000), (7, 13, 1),
                            (4095, 0, 1), (0, 0, 0)]:
        src.copy_into(dst, 1, s_off, 1, d_off, n)
        reference.naive_copy(src.backend, 2, s_off, dst.backend, 2, d_off, n)
        np.testing.assert_array_equal(dst.backend.read(1, 0, 4096),
                                      dst.backend.read(2, 0, 4096))


@pytest.mark.parametrize("rows,row_bytes,src_stride,dst_stride", [
    (8, 64, 64, 64),       # fully contiguous both sides
    (8, 64, 256, 64),      # strided gather into contiguous dst
    (8, 64, 64, 256),      # contiguous src scattered into strided dst
    (8, 64, 256, 512),     # strided both sides
    (1, 100, 100, 100),    # single row
    (16, 4, 1000, 2000),   # thin rows, wide gaps
])
def test_copy_into_2d_matches_reference(devices, rows, row_bytes,
                                        src_stride, dst_stride):
    src, dst = devices
    src_size = (rows - 1) * src_stride + row_bytes + 32
    dst_size = (rows - 1) * dst_stride + row_bytes + 32
    _fill(src, 1, src_size, seed=3)
    _fill(dst, 1, dst_size, seed=4)
    _fill(src, 2, src_size, seed=3)
    _fill(dst, 2, dst_size, seed=4)

    src.copy_into_2d(dst, 1, 16, src_stride, 1, 16, dst_stride,
                     rows=rows, row_bytes=row_bytes)
    reference.naive_copy_2d(src.backend, 2, 16, src_stride,
                            dst.backend, 2, 16, dst_stride,
                            rows=rows, row_bytes=row_bytes)
    got = dst.backend.read(1, 0, dst_size)
    want = dst.backend.read(2, 0, dst_size)
    # Gap bytes between rows must be preserved too.
    np.testing.assert_array_equal(got, want)


def test_copy_into_2d_sparse_span_takes_per_row_path(tmp_path, monkeypatch):
    """Force the span heuristic to reject dense gathering so the
    per-row positioned-I/O fallback is exercised, and stays correct."""
    monkeypatch.setattr(FileBackend, "SPAN_GAP_BYTES", 0)
    monkeypatch.setattr(FileBackend, "SPAN_MIN", 0)
    src = _device("src", FileBackend(str(tmp_path / "src")))
    dst = _device("dst", MemBackend())
    try:
        rows, row_bytes, stride = 6, 32, 500
        payload = _fill(src, 1, (rows - 1) * stride + row_bytes, seed=5)
        dst.backend.create(1, rows * row_bytes)
        src.copy_into_2d(dst, 1, 0, stride, 1, 0, row_bytes,
                         rows=rows, row_bytes=row_bytes)
        got = dst.backend.read(1, 0, rows * row_bytes).reshape(rows, row_bytes)
        for r in range(rows):
            np.testing.assert_array_equal(
                got[r], payload[r * stride:r * stride + row_bytes])
        # And the scatter direction through the same forced fallback.
        dst.copy_into_2d(src, 1, 0, row_bytes, 1, 0, stride,
                         rows=rows, row_bytes=row_bytes)
        np.testing.assert_array_equal(
            src.backend.read(1, 0, (rows - 1) * stride + row_bytes), payload)
    finally:
        src.backend.close()
        dst.backend.close()


def test_copy_into_same_device(tmp_path):
    for backend in (MemBackend(), FileBackend(str(tmp_path / "s"))):
        dev = _device("d", backend)
        payload = _fill(dev, 1, 256, seed=6)
        dev.backend.create(2, 256)
        dev.copy_into(dev, 1, 32, 2, 64, 128)
        np.testing.assert_array_equal(dev.backend.read(2, 64, 128),
                                      payload[32:160])
        backend.close()


# -- ArrayPool ---------------------------------------------------------------

def test_array_pool_reuses_and_zero_fills():
    pool = ArrayPool()
    a = pool.take(1024)
    assert a.nbytes == 1024 and a.sum() == 0
    a[:] = 0xFF
    pool.give(a)
    b = pool.take(1024)
    assert b is a                   # same allocation came back
    assert b.sum() == 0             # ...scrubbed
    assert pool.reuses == 1
    c = pool.take(1024)
    assert c is not b
    assert pool.fresh == 2


def test_array_pool_respects_caps():
    pool = ArrayPool(max_bytes=2048, max_per_size=2)
    arrs = [pool.take(1024) for _ in range(4)]
    for a in arrs:
        pool.give(a)
    # Only two fit under max_bytes; the rest were dropped.
    assert pool.held_bytes == 2048
    assert pool.dropped == 2
    pool.clear()
    assert pool.held_bytes == 0


def test_array_pool_zero_size():
    pool = ArrayPool()
    a = pool.take(0)
    assert a.nbytes == 0
    pool.give(a)               # must not be retained
    assert pool.held_bytes == 0


def test_array_pool_concurrent_stress():
    """Hammer one pool from many threads (the dist sender threads give
    staging buffers back off the caller's thread): every take() must hand out a zeroed
    array that no other thread holds, and the accounting must balance.
    """
    import threading

    pool = ArrayPool(max_bytes=1 << 20)
    sizes = [256, 512, 1024, 4096]
    errors: list[str] = []
    takes: list[int] = []

    def worker(seed: int) -> None:
        rng = np.random.default_rng(seed)
        held: list[np.ndarray] = []
        count = 0
        try:
            for _ in range(400):
                if held and rng.random() < 0.5:
                    arr = held.pop()
                    if not (arr == 0xAB).all():
                        errors.append("held array was clobbered")
                        return
                    pool.give(arr)
                else:
                    size = int(sizes[rng.integers(len(sizes))])
                    arr = pool.take(size)
                    count += 1
                    if arr.nbytes != size:
                        errors.append(f"missized: {arr.nbytes} != {size}")
                        return
                    if arr.any():
                        errors.append("recycled array was not scrubbed")
                        return
                    arr[:] = 0xAB
                    held.append(arr)
            for arr in held:
                pool.give(arr)
        except Exception as exc:           # noqa: BLE001 - reported below
            errors.append(repr(exc))
        finally:
            takes.append(count)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[0]
    assert pool.fresh + pool.reuses == sum(takes)
    assert pool.held_bytes <= 1 << 20


def test_mem_backend_pooled_alloc_is_zeroed():
    """Recycled pool memory must never leak prior contents into a
    fresh allocation."""
    b = MemBackend()
    b.create(1, 512)
    b.write(1, 0, np.full(512, 0xAB, dtype=np.uint8))
    b.destroy(1)               # buffer returns to the pool
    b.create(2, 512)           # same size: should reuse
    assert b.read(2, 0, 512).sum() == 0
    b.close()

