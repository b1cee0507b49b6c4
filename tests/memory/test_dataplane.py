"""Equivalence tests for the zero-copy data plane.

Every fast path in ``Device.copy_into`` / ``copy_into_2d`` -- the
Listing 4 dispatch on (src storage, dst storage) -- must produce bytes
identical to the retained naive reference in ``tests/reference/naive_plane``.
The tests sweep all four backend pairs and the stride regimes that
select different file I/O strategies (contiguous, mapped gapped
gathers, row-band and per-row scatters).  A contiguous range is
the one-row window, so ``System.move`` and a one-row ``move_2d`` must
be indistinguishable.
"""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memory.backends as backends_mod
from repro.core.buffers import ArrayPool
from repro.core.system import System
from repro.errors import TransferError
from repro.memory.backends import FileBackend, MemBackend
from repro.memory.device import Device, DeviceSpec, StorageKind
from repro.topology.builders import apu_two_level
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
    (1, 100, 7, 3000),     # single row: its strides are irrelevant
    (1, 4096, 4096, 4096),  # single row spanning pages
    (32, 16, 16, 16),      # thin dense rows: one slice / one positioned I/O
    (4, 20000, 20000, 20000),  # dense rows past the span heuristic
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


def test_copy_into_2d_sparse_span_scatter_takes_per_row_path(tmp_path,
                                                            monkeypatch):
    """Force the span heuristic to reject a row band so the per-row
    positioned-write scatter is exercised, and stays correct."""
    monkeypatch.setattr(FileBackend, "SPAN_GAP_BYTES", 0)
    monkeypatch.setattr(FileBackend, "SPAN_MIN", 0)
    src = _device("src", FileBackend(str(tmp_path / "src")))
    dst = _device("dst", MemBackend())
    try:
        rows, row_bytes, stride = 6, 32, 500
        payload = _fill(src, 1, (rows - 1) * stride + row_bytes, seed=5)
        dst.backend.create(1, rows * row_bytes)
        for r in range(rows):
            dst.backend.write(1, r * row_bytes,
                              payload[r * stride:r * stride + row_bytes])
        dst.copy_into_2d(src, 1, 0, row_bytes, 1, 0, stride,
                         rows=rows, row_bytes=row_bytes)
        assert src.backend.bands == {"whole": 0, "merged": 0}
        np.testing.assert_array_equal(
            src.backend.read(1, 0, (rows - 1) * stride + row_bytes), payload)
    finally:
        src.backend.close()
        dst.backend.close()


def _gather_layout(rows, row_bytes, layout):
    """A destination for a gathered window: C order, every other
    column of a wider array, or Fortran order."""
    if layout == "c":
        return np.full((rows, row_bytes), 0xAB, np.uint8)
    if layout == "columns":
        return np.full((rows, 2 * row_bytes), 0xAB, np.uint8)[:, ::2]
    return np.asfortranarray(np.full((rows, row_bytes), 0xAB, np.uint8))


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 12), row_bytes=st.integers(1, 9000),
       gap=st.integers(0, 9000), offset=st.integers(0, 5000),
       tail=st.sampled_from([0, 0, 1, 4095, 7000]),
       layout=st.sampled_from(["c", "columns", "fortran"]),
       band=st.sampled_from([4096, 3 * 4096, 1 << 16, None]),
       writes=st.lists(st.tuples(st.floats(0, 1), st.integers(1, 6000)),
                       max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_mapped_gather_matches_a_memory_oracle(rows, row_bytes, gap, offset,
                                               tail, layout, band, writes,
                                               seed):
    """Every window a file gather maps -- unaligned offsets, rows across
    pages or longer than one, never-written holes, a last row ending the
    file, any destination layout, one or many map bands -- holds the
    bytes of a ``MemBackend`` given the same writes."""
    stride = row_bytes + gap
    size = offset + (rows - 1) * stride + row_bytes + tail
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as root:
        fb, mb = FileBackend(os.path.join(root, "f")), MemBackend()
        try:
            for b in (fb, mb):
                b.create(1, size)
            for where, nbytes in writes:      # the rest stays a hole
                lo = int(where * (size - 1))
                data = rng.integers(0, 256, min(nbytes, size - lo),
                                    dtype=np.uint8)
                fb.write(1, lo, data)
                mb.write(1, lo, data)
            got = _gather_layout(rows, row_bytes, layout)
            want = np.empty((rows, row_bytes), np.uint8)
            with mock.patch.object(backends_mod, "MAP_BAND_BYTES",
                                   band or backends_mod.MAP_BAND_BYTES):
                fb.gather_2d(1, offset, rows, row_bytes, stride, got)
            mb.gather_2d(1, offset, rows, row_bytes, stride, want)
            np.testing.assert_array_equal(got, want)
        finally:
            fb.close()
            mb.close()


def test_a_root_file_cut_behind_the_runtime_raises_on_the_coordinator(
        tmp_path):
    """A 16 KiB root whose file is cut to 1,000 B: moving it to staging
    and fetching it raise, naming the buffer's file, instead of reading
    the 3,846 floats past the cut as zeros."""
    system = System(apu_two_level(storage_backend=FileBackend(
        str(tmp_path / "root"))))
    try:
        data = np.arange(4096, dtype=np.float32)
        root = system.alloc(data.nbytes, system.tree.root, label="root")
        system.preload(root, data)
        path = system.node_of(root).device.backend.path_of(
            root.alloc_id, 0, data.nbytes)
        os.truncate(path, 1000)
        staging = system.alloc(data.nbytes, system.tree.leaves()[0])
        with pytest.raises(TransferError, match=path):
            system.move_down(staging, root, data.nbytes)
        with pytest.raises(TransferError, match=path):
            system.fetch(root, np.float32)
    finally:
        system.close()


def test_a_gapped_gather_the_file_ends_inside_raises(tmp_path):
    """A file truncated behind the backend's back: the mapped gather
    maps nothing past its end (no SIGBUS) and reports the window short,
    and gather_2d raises; windows that end before the cut still read."""
    b = FileBackend(str(tmp_path / "s"))
    try:
        payload = np.random.default_rng(9).integers(0, 256, 64 * 1024,
                                                    dtype=np.uint8)
        b.create(1, payload.size)
        b.write(1, 0, payload)
        rows, row_bytes, stride, offset = 12, 3000, 5000, 100
        os.truncate(b._paths[1], offset + 5 * stride + 1000)
        want = np.lib.stride_tricks.as_strided(
            payload[offset:], (rows, row_bytes), (stride, 1)).copy()
        got = np.empty((rows, row_bytes), np.uint8)
        with pytest.raises(TransferError, match="buffer 1"):
            b.gather_2d(1, offset, rows, row_bytes, stride, got)
        with mock.patch.object(backends_mod, "MAP_BAND_BYTES", 2 * stride):
            assert not b._gather_fd(b._fd(1), offset, rows, row_bytes,
                                    stride, got)
            assert b._gather_fd(b._fd(1), offset, 5, row_bytes, stride,
                                got[:5])
        np.testing.assert_array_equal(got[:5], want[:5])
        os.truncate(b._paths[1], 0)
        assert not b._gather_fd(b._fd(1), offset, rows, row_bytes, stride,
                                got)
    finally:
        b.close()


@pytest.mark.parametrize("rows,row_bytes,stride", [(1, 4096, 1),
                                                   (8, 512, 512)])
def test_dense_file_window_is_one_positioned_call(tmp_path, monkeypatch,
                                                  rows, row_bytes, stride):
    """A dense window (one row, or rows back to back) moves between a
    file and memory as one ``preadv`` and one ``pwrite``."""
    file = _device("file", FileBackend(str(tmp_path / "f")))
    mem = _device("mem", MemBackend())
    try:
        payload = _fill(file, 1, 8192, seed=7)
        mem.backend.create(1, 8192)
        calls = []
        for name in ("preadv", "pwrite"):
            real = getattr(os, name)
            monkeypatch.setattr(os, name, lambda *a, _real=real, _name=name:
                                calls.append(_name) or _real(*a))
        file.copy_into_2d(mem, 1, 0, stride, 1, 0, stride, rows=rows,
                          row_bytes=row_bytes)
        mem.copy_into_2d(file, 1, 0, stride, 1, 4096, stride, rows=rows,
                         row_bytes=row_bytes)
        assert calls == ["preadv", "pwrite"]
        monkeypatch.undo()
        np.testing.assert_array_equal(file.backend.read(1, 4096, 4096),
                                      payload[:4096])
    finally:
        file.backend.close()
        mem.backend.close()


def _moves_on(root_kind: str, moves, one_row: bool):
    """Run ``moves`` on a fresh two-level system, each as ``move`` or as
    a one-row ``move_2d``; returns the destination bytes, the move
    results and the trace."""
    with tempfile.TemporaryDirectory() as tmp:
        backend = MemBackend() if root_kind == "mem" else \
            FileBackend(os.path.join(tmp, "root"))
        system = System(apu_two_level(storage_capacity=1 << 20,
                                      staging_bytes=1 << 20,
                                      storage_backend=backend))
        try:
            root, leaf = system.tree.root, system.tree.leaves()[0]
            top = system.alloc(4096, root)
            low = system.alloc(4096, leaf)
            system.preload(top, np.arange(4096, dtype=np.uint8) * 7)
            system.preload(low, np.arange(4096, dtype=np.uint8) * 3)
            results = []
            for up, nbytes, src_offset, dst_offset, strides in moves:
                src, dst = (low, top) if up else (top, low)
                if one_row:
                    res = system.move_2d(
                        dst, src, rows=1, row_bytes=nbytes,
                        src_offset=src_offset, src_stride=strides[0],
                        dst_offset=dst_offset, dst_stride=strides[1])
                else:
                    res = system.move(dst, src, nbytes,
                                      src_offset=src_offset,
                                      dst_offset=dst_offset)
                results.append((res.start, res.end, res.nbytes, res.hops))
            data = (system.fetch(top, np.uint8), system.fetch(low, np.uint8))
            return data, results, list(system.timeline.trace)
        finally:
            system.close()


_window = st.integers(0, 4096).flatmap(lambda n: st.tuples(
    st.booleans(), st.just(n), st.integers(0, 4096 - n),
    st.integers(0, 4096 - n), st.tuples(st.integers(0, 8192),
                                        st.integers(0, 8192))))


@settings(max_examples=40, deadline=None)
@given(root_kind=st.sampled_from(["mem", "file"]),
       moves=st.lists(_window, min_size=1, max_size=4))
def test_move_is_the_one_row_window(root_kind, moves):
    """``move`` and ``move_2d(rows=1)`` (whatever strides it is given)
    leave identical bytes, results and trace rows."""
    data, results, trace = _moves_on(root_kind, moves, one_row=False)
    data2, results2, trace2 = _moves_on(root_kind, moves, one_row=True)
    for a, b in zip(data, data2):
        np.testing.assert_array_equal(a, b)
    assert results == results2
    assert trace == trace2


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

