"""FileBackend write combining: gapped tile scatters land in one dirty
row band, written out whole (one ``pwrite``) or merged (one
read-modify-write) before anything can see the file -- and every write
checks that all of its bytes reached the file."""

import errno
import os

import numpy as np
import pytest

import repro.memory.backends as backends_mod
from repro.apps import GemmApp, HotspotApp
from repro.core.system import System
from repro.errors import TransferError
from repro.memory.backends import FileBackend
from repro.memory.units import KB
from repro.obs.report import RunReport
from repro.topology.builders import apu_two_level
from tests.hygiene import io_threads as _io_threads
from tests.memory.test_readahead import _settle

ROWS, STRIDE = 4, 64


def _on_disk(b, alloc_id):
    """The file's bytes, read past the backend."""
    with open(b._paths[alloc_id], "rb") as fh:
        return np.frombuffer(fh.read(), dtype=np.uint8)


def _tile(fill, rows=ROWS, width=16):
    return np.full((rows, width), fill, dtype=np.uint8)


def _band(b, alloc_id, band, cols, fill0=1):
    """Scatter 16-byte tiles at ``cols`` into row band ``band``; returns
    what the file must hold afterwards (starting from zeros)."""
    want = np.zeros(b.size_of(alloc_id), dtype=np.uint8)
    grid = want.reshape(-1, STRIDE)
    for i, col in enumerate(cols):
        b.scatter_2d(alloc_id, band * ROWS * STRIDE + col, ROWS, 16, STRIDE,
                     _tile(fill0 + i))
        grid[band * ROWS:(band + 1) * ROWS, col:col + 16] = fill0 + i
    return want


@pytest.fixture
def b(tmp_path):
    backend = FileBackend(str(tmp_path / "f"))
    for alloc_id in (1, 2):
        backend.create(alloc_id, 4 * ROWS * STRIDE)
    yield backend
    backend.close()


def test_tiles_wait_in_the_band_and_a_whole_band_is_one_write(
        b, monkeypatch):
    calls = []
    real = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda *a: calls.append(a[2])
                        or real(*a))
    want = _band(b, 1, 1, [0, 16, 32, 48])
    assert calls == [] and not _on_disk(b, 1).any()
    b.flush()
    assert calls == [ROWS * STRIDE]              # one dense write, no read
    assert b.bands == {"whole": 1, "merged": 0}
    np.testing.assert_array_equal(_on_disk(b, 1), want)


def test_a_read_inside_a_dirty_band_sees_the_tiles(b):
    want = _band(b, 1, 0, [0, 16, 32, 48])
    np.testing.assert_array_equal(b.read(1, 20, 8), want[20:28])
    assert b._band is None and b.bands["whole"] == 1
    out = np.empty((2, 16), dtype=np.uint8)     # a gather flushes too
    want = _band(b, 1, 2, [16])
    b.gather_2d(1, 2 * ROWS * STRIDE + 8, 2, 16, STRIDE, out)
    np.testing.assert_array_equal(
        out, want.reshape(-1, STRIDE)[2 * ROWS:2 * ROWS + 2, 8:24])
    # A read that misses the band leaves it dirty.
    _band(b, 1, 3, [0])
    b.read(1, 0, 2 * ROWS * STRIDE)
    b.read(2, 3 * ROWS * STRIDE, 16)
    assert b._band is not None


def test_partial_coverage_keeps_the_gap_bytes(b):
    old = np.random.default_rng(3).integers(0, 256, b.size_of(1),
                                            dtype=np.uint8)
    b.write(1, 0, old)
    _band(b, 1, 1, [16, 40, 48])                 # overlapping tiles, gaps
    b.flush()
    want = old.copy().reshape(-1, STRIDE)
    want[ROWS:2 * ROWS, 16:32] = 1
    want[ROWS:2 * ROWS, 40:56] = 2
    want[ROWS:2 * ROWS, 48:64] = 3               # the later tile wins
    np.testing.assert_array_equal(_on_disk(b, 1), want.reshape(-1))
    assert b.bands == {"whole": 0, "merged": 1}
    # A tile across a row start is a band of its own, merged alike.
    offset = 2 * ROWS * STRIDE + 52
    b.scatter_2d(1, offset, ROWS, 16, STRIDE, _tile(9))
    b.flush()
    want = want.reshape(-1)
    for r in range(ROWS):
        want[offset + r * STRIDE:offset + r * STRIDE + 16] = 9
    np.testing.assert_array_equal(_on_disk(b, 1), want)
    assert b.bands == {"whole": 0, "merged": 2}


def test_a_band_past_the_end_merges_only_the_files_bytes(tmp_path):
    """A band whose last row runs past the buffer's end reads back only
    the bytes the file has; a file cut shorter still raises."""
    b = FileBackend(str(tmp_path / "f"))
    try:
        size = ROWS * STRIDE - 16
        old = np.random.default_rng(4).integers(0, 256, size, np.uint8)
        b.create(1, size)
        b.write(1, 0, old)
        b.scatter_2d(1, 16, ROWS, 16, STRIDE, _tile(7))
        b.flush()
        want = np.concatenate([old, np.zeros(16, np.uint8)])
        want.reshape(ROWS, STRIDE)[:, 16:32] = 7
        np.testing.assert_array_equal(_on_disk(b, 1), want[:size])
        assert b.bands == {"whole": 0, "merged": 1}
        b.scatter_2d(1, 16, ROWS, 16, STRIDE, _tile(8))
        os.truncate(b._paths[1], 100)
        with pytest.raises(TransferError, match="ends at byte 100"):
            b.flush()
    finally:
        b.close()


def test_advice_over_a_dirty_band_is_served_fresh_bytes(b, monkeypatch):
    monkeypatch.setattr(backends_mod, "READAHEAD_MIN_BYTES", 16)
    want = _band(b, 1, 0, [0, 16, 32])
    b.advise([(1, 0, 1, ROWS * STRIDE, ROWS * STRIDE)])
    assert b._band is None                       # written before queueing
    _settle(b)
    out = np.empty(ROWS * STRIDE, dtype=np.uint8)
    b.read_into(1, 0, out)
    np.testing.assert_array_equal(out, want[:ROWS * STRIDE])
    assert b.readahead.counts["served"] == 1


def test_bands_interleaved_across_two_files(b):
    want = {1: np.zeros(b.size_of(1), np.uint8),
            2: np.zeros(b.size_of(2), np.uint8)}
    for step, col in enumerate([0, 16, 32, 48]):
        for alloc_id in (1, 2):
            fill = 10 * alloc_id + step
            b.scatter_2d(alloc_id, col, ROWS, 16, STRIDE, _tile(fill))
            want[alloc_id].reshape(-1, STRIDE)[:ROWS, col:col + 16] = fill
    b.flush()
    for alloc_id in (1, 2):
        np.testing.assert_array_equal(_on_disk(b, alloc_id), want[alloc_id])
    assert b.bands == {"whole": 0, "merged": 8}  # every switch writes one


def test_destroy_drops_the_band_of_its_file(b):
    _band(b, 1, 0, [0, 16, 32, 48])
    b.destroy(1)
    assert b._band is None
    b.create(1, 4 * ROWS * STRIDE)
    b.flush()
    assert not b.read(1, 0, b.size_of(1)).any()
    assert b.bands == {"whole": 0, "merged": 0}
    _band(b, 2, 0, [0])
    b.destroy(1)                                 # another file's band stays
    assert b._band is not None


def test_sync_writes_go_through_at_once(tmp_path, monkeypatch):
    b = FileBackend(str(tmp_path / "s"), sync_writes=True)
    synced = []
    monkeypatch.setattr(os, "fsync", synced.append)
    try:
        b.create(1, 4 * ROWS * STRIDE)
        want = _band(b, 1, 1, [16, 32])
        assert b._band is None and len(synced) == 2
        np.testing.assert_array_equal(_on_disk(b, 1), want)
    finally:
        b.close()


def _file_system(tmp_path, staging):
    backend = FileBackend(str(tmp_path / "storage"))
    return System(apu_two_level(staging_bytes=staging,
                                storage_backend=backend)), backend


def test_end_run_leaves_every_file_current(tmp_path):
    system, backend = _file_system(tmp_path, 128 * KB)
    try:
        app = GemmApp(system, m=160, k=160, n=160, seed=21)
        app.run(system)                          # ends with end_run
        assert backend._band is None and backend.bands["whole"] > 0
        c = app.c_root
        on_disk = _on_disk(backend, c.alloc_id)[
            c.base_offset:c.base_offset + c.nbytes].view(np.float32)
        np.testing.assert_array_equal(on_disk, app.result().reshape(-1))
    finally:
        system.close()


@pytest.mark.parametrize("make,staging,whole", [
    (lambda s: GemmApp(s, m=256, k=256, n=256, seed=1), 256 * KB, 4),
    (lambda s: HotspotApp(s, n=256, iterations=4, steps_per_pass=2, seed=1),
     128 * KB, 8),
])
def test_apps_write_whole_bands_only(tmp_path, make, staging, whole):
    """Both apps write their output tiles band-major and cover every
    band: an exact count, no merged band."""
    system, backend = _file_system(tmp_path, staging)
    try:
        app = make(system)
        app.run(system)
        assert np.array_equal(app.result(), app.reference())
        assert backend.bands == {"whole": whole, "merged": 0}
        gauges = {row["labels"]["outcome"]: row["value"]
                  for row in system.metrics.snapshot()["write_bands"]}
        assert gauges == {"whole": whole, "merged": 0}
        assert f"write bands: {whole} whole, 0 merged" in \
            RunReport.from_system(system).table()
    finally:
        system.close()


# -- checked writes -----------------------------------------------------------

def test_short_writes_are_resumed(b, monkeypatch):
    real = os.pwrite
    sizes = []

    def half(fd, data, offset):
        sizes.append(len(memoryview(data).cast("B")))
        return real(fd, memoryview(data).cast("B")[:max(1, sizes[-1] // 2)],
                    offset)
    monkeypatch.setattr(os, "pwrite", half)
    payload = np.arange(200, dtype=np.uint8)
    b.write(1, 10, payload)
    want = _band(b, 2, 0, [0, 16, 32, 48])
    b.flush()
    monkeypatch.undo()
    np.testing.assert_array_equal(b.read(1, 10, 200), payload)
    np.testing.assert_array_equal(b.read(2, 0, b.size_of(2)), want)
    assert len(sizes) > 2


@pytest.mark.parametrize("fault", ["eio", "stalled"])
def test_a_failed_write_is_a_transfer_error_naming_the_file(
        b, monkeypatch, fault):
    def broken(fd, data, offset):
        if fault == "eio":
            raise OSError(errno.EIO, "injected EIO")
        return 0
    monkeypatch.setattr(os, "pwrite", broken)
    with pytest.raises(TransferError, match=r"buffer 1 \(.*buf_00000001"
                                            r"\.bin\) at offset 10"):
        b.write(1, 10, b"abc")
    # A band's write fails in the call that makes it write.
    _band(b, 2, 1, [0, 16, 32, 48])
    with pytest.raises(TransferError, match=f"buffer 2 .* at offset "
                                            f"{ROWS * STRIDE}"):
        b.read(2, ROWS * STRIDE, 4)
    assert b._band is None


def test_close_after_a_failed_write_releases_everything(tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(backends_mod, "READAHEAD_MIN_BYTES", 16)
    b = FileBackend(str(tmp_path / "c"))
    b.create(1, 4 * ROWS * STRIDE)
    b.advise([(1, 0, 1, 64, 64)])
    assert _io_threads()
    _band(b, 1, 2, [0, 16])
    monkeypatch.setattr(os, "pwrite", lambda *a: (_ for _ in ()).throw(
        OSError(errno.EIO, "injected EIO")))
    with pytest.raises(TransferError):
        b.flush()
    b.close()
    assert b.open_fds == 0
    assert not os.path.exists(str(tmp_path / "c"))
    assert not _io_threads()
