"""FileBackend read-ahead: advice never changes a byte, an error or
the lifetime of anything.

The reader is a real thread, so most tests lower the size floor and use
small files: every interleaving of the reader with the coordinator's
writes (combined into row bands or not), destroys and reads must give
the bytes (or the exception) of an in-memory twin that never received
advice.
"""

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

import repro.memory.backends as backends_mod
from repro.errors import AllocationError, TransferError
from repro.memory.backends import (READAHEAD_BUFFERS, READAHEAD_MIN_BYTES,
                                   FileBackend, MemBackend)
from tests.hygiene import io_threads as _io_threads
from tests.hygiene import within as _within


def _settle(backend, seconds=5.0):
    """Wait until the reader has nothing left it could start."""
    ahead = backend.readahead
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        with ahead._cv:
            if ahead._reading is None and ahead._next() is None:
                return
        time.sleep(0.0005)
    raise AssertionError("reader never went idle")


def _accounted(ahead):
    """Every advised window has exactly one fate or is still queued."""
    c = ahead.counts
    return c["advised"] == (c["served"] + c["late"] + c["stale"]
                            + c["skipped"] + c["failed"] + len(ahead._queue))


@pytest.fixture
def low_floor(monkeypatch):
    monkeypatch.setattr(backends_mod, "READAHEAD_MIN_BYTES", 16)


def _filled(tmp_path, name, sizes):
    b = FileBackend(str(tmp_path / name))
    rng = np.random.default_rng(7)
    for alloc_id, size in sizes.items():
        b.create(alloc_id, size)
        b.write(alloc_id, 0, rng.integers(0, 256, size, dtype=np.uint8))
    return b


# -- exactness: a twin that never gets advice ---------------------------------

FILE_BYTES = 2048


class ReadAheadTwin(RuleBasedStateMachine):
    """Random ``create/advise/write/scatter_2d/read_into/gather_2d/
    destroy/flush`` against an advised file backend, whose gapped
    scatters wait in row bands, and a :class:`MemBackend` byte oracle.
    Writes and reads aim at the advised windows most of the time, and
    tile walks build bands -- that is where a stale byte could come
    from."""

    ids = st.integers(1, 2)
    windows = st.tuples(ids, st.integers(0, FILE_BYTES // 48).map(
                            lambda i: i * 32),
                        st.integers(1, 6), st.sampled_from([16, 48, 128]),
                        st.sampled_from([0, 0, 16, 80]))

    def __init__(self):
        super().__init__()
        import tempfile
        self._dir = tempfile.TemporaryDirectory(prefix="readahead-twin-")
        self._floor = backends_mod.READAHEAD_MIN_BYTES
        backends_mod.READAHEAD_MIN_BYTES = 16
        self.advised = FileBackend(os.path.join(self._dir.name, "a"))
        self.oracle = MemBackend()
        self.last_advice: list[tuple] = []
        self.generation = 0
        for alloc_id in (1, 2):
            self.create(alloc_id)

    def teardown(self):
        backends_mod.READAHEAD_MIN_BYTES = self._floor
        with _within(10):
            self.advised.close()
        self.oracle.close()
        self._dir.cleanup()
        assert not _io_threads()

    def _both(self, call):
        """Run ``call(backend)`` on both; same result or same error."""
        results = []
        for backend in (self.advised, self.oracle):
            try:
                with _within(10):
                    results.append(("ok", call(backend)))
            except (TransferError, AllocationError) as exc:
                results.append((type(exc).__name__, None))
        assert results[0][0] == results[1][0]
        if results[0][1] is not None:
            np.testing.assert_array_equal(results[0][1], results[1][1])

    @rule(alloc_id=ids)
    def create(self, alloc_id):
        if alloc_id in self.oracle._bufs:
            return
        self.generation += 1
        fill = np.random.default_rng(self.generation).integers(
            0, 256, FILE_BYTES, dtype=np.uint8)
        for backend in (self.advised, self.oracle):
            backend.create(alloc_id, FILE_BYTES)
            backend.write(alloc_id, 0, fill)

    @rule(alloc_id=ids)
    def destroy(self, alloc_id):
        self._both(lambda b: b.destroy(alloc_id))

    @rule(windows=st.lists(windows, min_size=1, max_size=6),
          settle=st.booleans())
    def advise(self, windows, settle):
        windows = [(a, off, rows, rb, rb + gap)
                   for a, off, rows, rb, gap in windows]
        self.last_advice = windows
        with _within(10):
            self.advised.advise(windows)
        if settle:
            _settle(self.advised)

    @rule()
    def settle(self):
        _settle(self.advised)

    def _aim(self, data):
        """A byte offset in or just around an advised window."""
        alloc_id, offset, rows, row_bytes, stride = data.draw(
            st.sampled_from(self.last_advice))
        span = (rows - 1) * stride + row_bytes
        return alloc_id, max(0, offset + data.draw(
            st.integers(-8, span + 8)))

    @rule(alloc_id=ids, offset=st.integers(0, FILE_BYTES),
          payload=st.binary(min_size=1, max_size=64))
    def write_anywhere(self, alloc_id, offset, payload):
        self._both(lambda b: b.write(alloc_id, offset, payload))

    @precondition(lambda self: self.last_advice)
    @rule(data=st.data(), payload=st.binary(min_size=1, max_size=64))
    def write_into_advised(self, data, payload):
        alloc_id, offset = self._aim(data)
        self._both(lambda b: b.write(alloc_id, offset, payload))

    @precondition(lambda self: self.last_advice)
    @rule(data=st.data(), rows=st.integers(1, 4),
          row_bytes=st.sampled_from([1, 8, 40]),
          gap=st.sampled_from([0, 8, 100]), fill=st.integers(0, 255))
    def scatter_into_advised(self, data, rows, row_bytes, gap, fill):
        alloc_id, offset = self._aim(data)
        block = np.full((rows, row_bytes), fill, dtype=np.uint8)
        self._both(lambda b: b.scatter_2d(alloc_id, offset, rows, row_bytes,
                                          row_bytes + gap, block))

    @rule(alloc_id=ids, band=st.integers(0, 3), rows=st.integers(2, 4),
          width=st.sampled_from([32, 64]), tiles=st.integers(1, 4),
          fill=st.integers(0, 255))
    def tile_walk(self, alloc_id, band, rows, width, tiles, fill):
        """An app's output tiles, left to right across one row band of a
        128-byte-stride grid: bands form, covered whole or in part."""
        for i in range(min(tiles, 128 // width)):
            block = np.full((rows, width), (fill + i) % 256, dtype=np.uint8)
            self._both(lambda b: b.scatter_2d(
                alloc_id, band * rows * 128 + i * width, rows, width, 128,
                block))

    @precondition(lambda self: self.advised._band is not None)
    @rule(settle=st.booleans())
    def advise_the_dirty_band(self, settle):
        """Advice over the band's rows: the reader must see its bytes."""
        (alloc_id, base, rows, stride), _, _ = self.advised._band
        row_bytes = min(48, stride)
        self.advise([(alloc_id, base, rows, row_bytes, stride - row_bytes)],
                    settle)

    @rule()
    def flush(self):
        """What ``System.end_run`` does: every file is current."""
        with _within(10):
            self.advised.flush()
        for alloc_id, path in self.advised._paths.items():
            with open(path, "rb") as fh:
                np.testing.assert_array_equal(
                    np.frombuffer(fh.read(), dtype=np.uint8),
                    self.oracle.read(alloc_id, 0, FILE_BYTES))

    def _read(self, alloc_id, offset, rows, row_bytes, stride):
        def gather(b):
            out = np.full((rows, row_bytes), 0xAB, dtype=np.uint8)
            b.gather_2d(alloc_id, offset, rows, row_bytes, stride, out)
            return out

        def read_into(b):
            out = np.full(rows * row_bytes, 0xAB, dtype=np.uint8)
            b.read_into(alloc_id, offset, out)
            return out
        self._both(read_into if stride == row_bytes and offset % 64
                   else gather)

    @rule(window=windows)
    def read_anywhere(self, window):
        alloc_id, offset, rows, row_bytes, gap = window
        self._read(alloc_id, offset, rows, row_bytes, row_bytes + gap)

    @precondition(lambda self: self.last_advice)
    @rule(data=st.data())
    def read_advised(self, data):
        self._read(*data.draw(st.sampled_from(self.last_advice)))

    @precondition(lambda self: self.last_advice)
    @rule(settle=st.booleans())
    def read_all_advised_in_order(self, settle):
        """What a level does: its hinted windows, one after the other."""
        for window in self.last_advice:
            if settle:
                _settle(self.advised)
            self._read(*window)

    @invariant()
    def bounded_and_accounted(self):
        ahead = self.advised.readahead
        with ahead._cv:
            assert _accounted(ahead), (ahead.counts, len(ahead._queue))
            assert 0 <= ahead._out <= READAHEAD_BUFFERS
            assert ahead._out + len(ahead._free) <= READAHEAD_BUFFERS
        band = self.advised._band
        assert band is None or band[0][0] in self.advised._paths


ReadAheadTwin.TestCase.settings = settings(max_examples=100,
                                           stateful_step_count=50,
                                           deadline=None)
test_read_ahead_twin = ReadAheadTwin.TestCase


# -- serving, queue rules, invalidation ----------------------------------------

def test_advised_windows_are_served_from_side_buffers(tmp_path, low_floor):
    b = _filled(tmp_path, "s", {1: 4096, 2: 4096})
    try:
        expect1 = b.read(1, 0, 4096)
        expect2 = b.read(2, 0, 4096)
        windows = [(1, 0, 1, 1024, 1024), (2, 64, 8, 32, 128),
                   (1, 1024, 4, 256, 256)]
        b.advise(windows)
        _settle(b)
        out = np.empty(1024, dtype=np.uint8)
        b.read_into(1, 0, out)
        np.testing.assert_array_equal(out, expect1[:1024])
        strided = np.empty((8, 32), dtype=np.uint8)
        b.gather_2d(2, 64, 8, 32, 128, strided)
        np.testing.assert_array_equal(
            strided, np.lib.stride_tricks.as_strided(
                expect2[64:], shape=(8, 32), strides=(128, 1)))
        # A contiguous window is the same window however it is cut:
        # advised as 4 rows of 256, read as one run of 1024.
        _settle(b)
        b.read_into(1, 1024, out)
        np.testing.assert_array_equal(out, expect1[1024:2048])
        c = b.readahead.counts
        assert (c["advised"], c["served"]) == (3, 3)
        assert b.readahead.bytes == 1024 + 8 * 32 + 1024
        assert _io_threads() == ["repro-io-read-file"]
    finally:
        b.close()
    assert not _io_threads()


def test_take_drops_the_untaken_windows_before_it(tmp_path, low_floor):
    b = _filled(tmp_path, "s", {1: 4096})
    try:
        b.advise([(1, i * 512, 1, 512, 512) for i in range(6)])
        _settle(b)
        out = np.empty(512, dtype=np.uint8)
        b.read_into(1, 3 * 512, out)            # windows 0-2 never came
        c = b.readahead.counts
        assert c["skipped"] == 3
        assert c["late"] + c["served"] == 1
        b.read_into(1, 0, out)                  # dropped: a plain read
        assert c["late"] + c["served"] == 1
        assert len(b.readahead._queue) == 2
        assert _accounted(b.readahead)
    finally:
        b.close()


def test_new_advice_supersedes_and_empty_advice_cancels(tmp_path, low_floor):
    b = _filled(tmp_path, "s", {1: 4096})
    try:
        b.advise([(1, 0, 1, 512, 512), (1, 512, 1, 512, 512)])
        b.advise([(1, 1024, 1, 512, 512)])
        assert [w.key[1] for w in b.readahead._queue] == [1024]
        assert b.readahead.counts["skipped"] == 2
        b.advise(())
        assert not b.readahead._queue
        assert b.readahead.counts["skipped"] == 3
        assert _accounted(b.readahead)
    finally:
        b.close()


def test_only_overlapping_writes_discard_a_window(tmp_path, low_floor):
    b = _filled(tmp_path, "s", {1: 4096, 2: 4096})
    try:
        before = b.read(1, 1024, 512)
        b.advise([(1, 1024, 1, 512, 512)])
        _settle(b)
        b.write(1, 0, bytes(1024))              # ends where the window starts
        b.write(1, 1536, bytes(64))             # starts where it ends
        b.write(2, 1024, bytes(512))            # same bytes, another file
        b.scatter_2d(1, 0, 4, 8, 2048 // 8, np.zeros((4, 8), np.uint8))
        assert b.readahead.counts["stale"] == 0
        out = np.empty(512, dtype=np.uint8)
        b.read_into(1, 1024, out)
        assert b.readahead.counts["served"] == 1
        np.testing.assert_array_equal(out, before)

        for overlapping in (lambda: b.write(1, 1535, b"\xff"),
                            lambda: b.scatter_2d(
                                1, 1000, 2, 8, 100,
                                np.full((2, 8), 0xEE, np.uint8))):
            stale = b.readahead.counts["stale"]
            b.advise([(1, 1024, 1, 512, 512)])
            _settle(b)
            overlapping()
            assert b.readahead.counts["stale"] == stale + 1
            b.read_into(1, 1024, out)
            np.testing.assert_array_equal(out, b.read(1, 1024, 512))
        assert b.readahead.counts["served"] == 1
    finally:
        b.close()


def test_a_write_during_the_inflight_read_discards_it(tmp_path, low_floor):
    b = _filled(tmp_path, "s", {1: 4096})
    entered, release = threading.Event(), threading.Event()
    real = b.readahead._read

    def slow(win, buf):
        done = real(win, buf)                    # the old bytes are in
        entered.set()
        release.wait(10)
        return done
    b.readahead._read = slow
    try:
        b.advise([(1, 0, 1, 1024, 1024)])
        assert entered.wait(5)
        b.write(1, 100, b"\x01\x02\x03")         # does not wait for it
        release.set()
        _settle(b)
        out = np.empty(1024, dtype=np.uint8)
        b.read_into(1, 0, out)
        assert out[100:103].tolist() == [1, 2, 3]
        assert b.readahead.counts["stale"] == 1
        assert b.readahead._out == 0             # its buffer came back
    finally:
        release.set()
        b.close()


def test_a_recreated_id_is_not_served_the_old_file(tmp_path, low_floor):
    b = _filled(tmp_path, "s", {1: 4096})
    try:
        b.advise([(1, 0, 1, 1024, 1024)])
        _settle(b)
        b.destroy(1)
        b.create(1, 4096)                        # same id, same path, zeros
        out = np.full(1024, 0xAB, dtype=np.uint8)
        b.read_into(1, 0, out)
        assert not out.any()
        assert b.readahead.counts["stale"] == 1
    finally:
        b.close()


def test_sort_style_rewrite_of_the_file_being_read(tmp_path, low_floor):
    """Reading a file ahead while rewriting it run by run (what
    ``SortApp`` does): every read sees the writes before it."""
    b = _filled(tmp_path, "s", {1: 8192})
    try:
        b.advise([(1, i * 1024, 1, 1024, 1024) for i in range(8)])
        out = np.empty(1024, dtype=np.uint8)
        for i in range(8):
            b.write(1, ((i + 1) % 8) * 1024, bytes([i + 1]) * 1024)
            b.read_into(1, i * 1024, out)
            if i:
                assert out.tolist() == [i] * 1024
        assert b.readahead.counts["stale"] >= 1
        assert _accounted(b.readahead)
    finally:
        b.close()


def test_filters_keep_small_repeated_and_bad_windows_out(tmp_path):
    big = 2 * READAHEAD_MIN_BYTES
    b = _filled(tmp_path, "s", {1: 2 * big, 2: big})
    try:
        b.advise([(1, 0, 1, READAHEAD_MIN_BYTES - 1, READAHEAD_MIN_BYTES - 1),
                  (1, 0, 8, 100, 200)])
        b.advise([(9, 0, 1, big, big),            # no such buffer
                  (1, big + 1, 1, big, big),      # past the end
                  (1, -1, 1, big, big)])
        assert not _io_threads()                  # nothing worth a thread
        assert b.readahead.counts == dict(advised=5, served=0, late=0,
                                          stale=0, skipped=5, failed=0)
        # GEMM's pattern: the same A strip hinted before every B tile.
        strip, tile = (1, 0, 1, big, big), (2, 0, 1, big, big)
        b.advise([strip, tile, strip, tile, strip, (1, big, 1, big, big)])
        assert [w.key[:2] for w in b.readahead._queue] == \
            [(1, 0), (2, 0), (1, big)]
        assert _io_threads() == ["repro-io-read-file"]
    finally:
        b.close()


def test_mem_backend_ignores_advice():
    b = MemBackend()
    b.create(1, 1 << 20)
    b.advise([(1, 0, 1, 1 << 20, 1 << 20)])
    assert not _io_threads()
    b.close()


def test_side_buffers_are_bounded_and_recycled(tmp_path, low_floor,
                                               monkeypatch):
    made = []
    real_empty = np.empty
    monkeypatch.setattr(
        backends_mod.np, "empty", lambda *a, **k: (
            made.append(threading.current_thread().name),
            real_empty(*a, **k))[1])
    b = _filled(tmp_path, "s", {1: 1 << 16})
    try:
        out = np.zeros(1024, dtype=np.uint8)
        b.advise([(1, i * 1024, 1, 1024, 1024) for i in range(40)])
        for i in range(40):
            _settle(b)
            ahead = b.readahead
            assert sum(w.state == backends_mod._READY
                       for w in ahead._queue) <= READAHEAD_BUFFERS
            b.read_into(1, i * 1024, out)
        assert ahead.counts["served"] == 40
        assert made.count("repro-io-read-file") == READAHEAD_BUFFERS
    finally:
        b.close()


# -- faults -------------------------------------------------------------------

def _twin_read(advised, plain, alloc_id, offset, nbytes):
    """``read_into`` on both backends: same bytes or same exception."""
    outcomes = []
    for b in (advised, plain):
        out = np.full(nbytes, 0xAB, dtype=np.uint8)
        try:
            with _within(10):
                b.read_into(alloc_id, offset, out)
            outcomes.append(out)
        except (OSError, TransferError) as exc:
            outcomes.append(type(exc))
    if isinstance(outcomes[1], type):
        assert outcomes[0] is outcomes[1]
    else:
        np.testing.assert_array_equal(outcomes[0], outcomes[1])
    return outcomes[1]


def test_file_truncated_under_the_reader(tmp_path, low_floor):
    """A window past the cut fails on the reader, and the coordinator's
    own read raises, as it does without advice."""
    a = _filled(tmp_path, "a", {1: 4096})
    p = _filled(tmp_path, "p", {1: 4096})
    try:
        for b in (a, p):
            os.truncate(b._paths[1], 1500)
        a.advise([(1, 1024, 1, 1024, 1024), (1, 0, 1, 1024, 1024)])
        _settle(a)
        assert _twin_read(a, p, 1, 1024, 1024) is TransferError
        assert a.readahead.counts["failed"] == 1
        _twin_read(a, p, 1, 0, 1024)             # inside the file: served
        assert a.readahead.counts["served"] == 1
    finally:
        a.close()
        p.close()


def test_gapped_window_of_a_file_truncated_under_the_reader(tmp_path,
                                                           low_floor):
    """The reader maps nothing of a gapped window the file ends inside:
    the window fails instead of faulting, and the caller's own gather
    raises, as on a backend that never got advice."""
    a = _filled(tmp_path, "a", {1: 64 * 1024})
    p = _filled(tmp_path, "p", {1: 64 * 1024})
    try:
        for b in (a, p):
            os.truncate(b._paths[1], 17_000)
        window = (1, 100, 8, 1000, 4096)        # crosses the end in row 4
        a.advise([window])
        _settle(a)
        for b in (a, p):
            with pytest.raises(TransferError, match="ends at byte 17000"):
                b.gather_2d(*window, np.empty((8, 1000), np.uint8))
        assert a.readahead.counts["failed"] == 1
    finally:
        a.close()
        p.close()


@pytest.mark.parametrize("fd_open", [True, False])
def test_file_unlinked_under_the_reader(tmp_path, low_floor, fd_open):
    a = _filled(tmp_path, "a", {1: 4096})
    p = _filled(tmp_path, "p", {1: 4096})
    try:
        for b in (a, p):
            if not fd_open:
                b._fds.close_all()               # the read must open by path
            os.remove(b._paths[1])
        a.advise([(1, 0, 1, 1024, 1024)])
        _settle(a)
        seen = _twin_read(a, p, 1, 0, 1024)
        assert (seen is FileNotFoundError) == (not fd_open)
        assert a.readahead.counts["failed"] == 1
    finally:
        a.close()
        p.close()


def test_reader_side_oserror_leaves_the_read_to_the_coordinator(
        tmp_path, low_floor, monkeypatch):
    real_preadv = os.preadv

    def preadv(fd, buffers, offset):
        if threading.current_thread().name.startswith("repro-io-"):
            raise OSError(5, "injected EIO")
        return real_preadv(fd, buffers, offset)
    monkeypatch.setattr(backends_mod.os, "preadv", preadv)
    a = _filled(tmp_path, "a", {1: 4096})
    p = _filled(tmp_path, "p", {1: 4096})
    try:
        a.advise([(1, i * 1024, 1, 1024, 1024) for i in range(4)])
        # Every window fails and frees its buffer, so a settled reader
        # has tried all four before the coordinator reads any.
        _settle(a)
        for i in range(4):
            _twin_read(a, p, 1, i * 1024, 1024)
        c = a.readahead.counts
        assert (c["served"], c["failed"], c["late"]) == (0, 4, 0)
        assert _accounted(a.readahead)
    finally:
        with _within(10):
            a.close()
        p.close()
    assert not _io_threads()


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_dead_reader_never_hangs_a_read_and_restarts(tmp_path, low_floor):
    a = _filled(tmp_path, "a", {1: 4096})
    try:
        expect = a.read(1, 0, 4096)
        real = a.readahead._read
        a.readahead._read = lambda win, buf: 1 // 0
        a.advise([(1, 0, 1, 1024, 1024), (1, 1024, 1, 1024, 1024)])
        # Nothing but the reader takes window 1 before the first read:
        # it must have tried it and died before the coordinator looks.
        a.readahead._thread.join(5)
        assert not a.readahead._thread.is_alive()
        out = np.empty(1024, dtype=np.uint8)
        with _within(10):
            a.read_into(1, 0, out)
            np.testing.assert_array_equal(out, expect[:1024])
            a.read_into(1, 1024, out)            # nobody will ever read it
            np.testing.assert_array_equal(out, expect[1024:2048])
        c = a.readahead.counts
        assert (c["failed"], c["late"]) == (1, 1)
        assert not _io_threads()
        a.readahead._read = real
        a.advise([(1, 2048, 1, 1024, 1024)])     # a fresh thread
        _settle(a)
        a.read_into(1, 2048, out)
        np.testing.assert_array_equal(out, expect[2048:3072])
        assert a.readahead.counts["served"] == 1
        assert _accounted(a.readahead)
    finally:
        with _within(10):
            a.close()
    assert not _io_threads()


def test_destroy_and_close_wait_out_an_inflight_read(tmp_path, low_floor):
    b = _filled(tmp_path, "s", {1: 4096, 2: 4096})
    entered, release = threading.Event(), threading.Event()
    real = b.readahead._read
    finished = []

    def slow(win, buf):
        entered.set()
        release.wait(10)
        done = real(win, buf)
        finished.append(win.key[0])
        return done
    b.readahead._read = slow
    try:
        for finish in (lambda: b.destroy(1), b.close):
            entered.clear()
            release.clear()
            b.advise([(1, 0, 1, 1024, 1024)])
            assert entered.wait(5)
            threading.Timer(0.05, release.set).start()
            n = len(finished)
            with _within(10):
                finish()
            assert len(finished) == n + 1        # not before the read ended
            if finish != b.close:
                b.create(1, 4096)
        assert not _io_threads()
    finally:
        release.set()
        b.close()


# -- lifecycle, placement -------------------------------------------------------

def test_no_reader_thread_without_advice_or_after_close(tmp_path, low_floor):
    b = _filled(tmp_path, "s", {1: 4096})
    b.read(1, 0, 4096)
    assert not _io_threads()
    b.advise([(1, 0, 1, 4096, 4096)])
    assert _io_threads()
    b.close()
    assert not _io_threads()
    b.close()                                    # idempotent


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux and two usable CPUs")
def test_reader_leaves_the_coordinators_cpu(tmp_path, low_floor, monkeypatch):
    home = min(os.sched_getaffinity(0))
    monkeypatch.setattr(backends_mod, "_current_cpu", lambda: home)
    b = _filled(tmp_path, "s", {1: 4096})
    masks = []
    real = b.readahead._read
    b.readahead._read = lambda win, buf: (
        masks.append(os.sched_getaffinity(0)), real(win, buf))[1]
    try:
        b.advise([(1, 0, 1, 4096, 4096)])
        _settle(b)
        assert masks == [os.sched_getaffinity(0) - {home}]
    finally:
        b.close()
    # The coordinator's own mask is untouched.
    assert home in os.sched_getaffinity(0)


def test_current_cpu_reads_proc():
    cpu = backends_mod._current_cpu()
    if hasattr(os, "sched_getaffinity") and os.path.exists("/proc/thread-self"):
        assert cpu in os.sched_getaffinity(0)
    else:
        assert cpu is None or cpu >= 0
