"""Data backends: where buffer bytes actually live.

The cost model (:mod:`repro.memory.device`) is the same for every backend;
what differs is the physical home of the data:

* :class:`MemBackend` keeps each buffer as a NumPy byte array in process
  memory.  This is the default for simulated experiments.
* :class:`FileBackend` keeps each buffer as a real file in a directory,
  reading and writing through the OS like the paper's POSIX
  ``read``/``write`` path (Listing 4).  Examples and integration tests use
  it to run genuinely out-of-core.

Both expose byte-addressed ``read``/``write`` on opaque integer ids, the
Python analogue of the paper's ``void *`` interface (Table I): the caller
never learns whether the id names an array, a file descriptor, or (in a
real system) a ``cl_mem``.

Zero-copy data plane
--------------------
``read``/``write`` are the safe, always-available copying interface
(``read`` returns an independent array the caller may mutate freely).
On top of it sits a set of *capability* methods the runtime's transfer
paths probe for, so a move between two backends degrades gracefully from
"one vectorised copy" to "copy out, copy in":

``try_view`` / ``try_view_2d``
    A writable zero-copy window into the backing storage (``None`` when
    the backend cannot expose one).  :class:`MemBackend` always can;
    :class:`FileBackend` never does.
``read_into``
    Fill a caller-provided array without an intermediate copy (a single
    ``np.copyto`` or a single ``preadv`` straight into the destination).
``gather_2d`` / ``scatter_2d``
    Vectored strided transfers: a 2-D row shard or ghost zone moves as
    one gathered operation (a strided NumPy copy, or one spanning
    ``pread``/``pwrite`` plus a strided copy) instead of a Python loop
    of per-row calls.

:class:`FileBackend` keeps an LRU-capped pool of open descriptors and
issues positioned I/O (``os.pread``/``os.pwrite``) against them: no
per-operation ``open`` and no ``.tobytes()`` staging copy on writes.

Read-ahead
----------
``advise`` is the will-need half of the interface: the runtime names the
windows it is about to read, in order.  It is a no-op by default;
:class:`FileBackend` reads them ahead on one reader thread
(:class:`_ReadAhead`) while the caller computes, so ``gather_2d`` /
``read_into`` of an advised window cost one ``np.copyto``.  Served
bytes are exactly what a synchronous read at that point would return:
every write through the backend first discards the windows it overlaps.
"""

from __future__ import annotations

import os
import shutil
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from time import perf_counter

import numpy as np

from repro.errors import AllocationError, TransferError


def _as_bytes(data: np.ndarray | bytes | bytearray | memoryview) -> np.ndarray:
    """View arbitrary buffer-like input as a 1-D uint8 array (no copy)."""
    if isinstance(data, np.ndarray):
        if not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        return data.reshape(-1).view(np.uint8)
    return np.frombuffer(data, dtype=np.uint8)


def _strided_2d(buf: np.ndarray, offset: int, rows: int, row_bytes: int,
                stride: int) -> np.ndarray:
    """A (rows, row_bytes) strided window over ``buf`` starting at
    ``offset``.  Caller has validated the bounds."""
    return np.lib.stride_tricks.as_strided(
        buf[offset:], shape=(rows, row_bytes), strides=(stride, 1))


class DataBackend(ABC):
    """Byte store keyed by opaque allocation ids."""

    #: Name of the device this backend serves; the owning
    #: :class:`~repro.memory.device.Device` sets it.  Only used to name
    #: helper threads.
    label = ""

    @abstractmethod
    def create(self, alloc_id: int, nbytes: int) -> None:
        """Materialise storage for ``alloc_id`` (zero-filled)."""

    @abstractmethod
    def destroy(self, alloc_id: int) -> None:
        """Release the storage behind ``alloc_id``."""

    @abstractmethod
    def read(self, alloc_id: int, offset: int, nbytes: int) -> np.ndarray:
        """Return ``nbytes`` bytes starting at ``offset`` as a uint8 array.

        The result is always an independent copy: callers may mutate it
        without touching backend state (the aliasing-safety tests pin
        this down for every backend).
        """

    @abstractmethod
    def write(self, alloc_id: int, offset: int,
              data: np.ndarray | bytes | bytearray | memoryview) -> None:
        """Write ``data`` at ``offset``."""

    @abstractmethod
    def size_of(self, alloc_id: int) -> int:
        """Size in bytes of the buffer behind ``alloc_id``."""

    @abstractmethod
    def close(self) -> None:
        """Release every buffer and any external resources."""

    # -- zero-copy capabilities (optional; safe defaults) ------------------

    def try_view(self, alloc_id: int, offset: int,
                 nbytes: int) -> np.ndarray | None:
        """A writable zero-copy uint8 window, or ``None`` if this backend
        cannot expose one.  Mutations through the view hit the backing
        storage directly; the view is only valid while the buffer lives."""
        return None

    def try_view_2d(self, alloc_id: int, offset: int, rows: int,
                    row_bytes: int, stride: int) -> np.ndarray | None:
        """Strided 2-D variant of :meth:`try_view` (rows x row_bytes)."""
        return None

    def read_into(self, alloc_id: int, offset: int, out: np.ndarray) -> None:
        """Fill ``out`` (uint8, ``out.size`` bytes) from ``offset``.

        Default: a copying read.  Backends override this to write the
        destination directly (``np.copyto`` / ``preadv``).
        """
        out[...] = self.read(alloc_id, offset, out.size)

    def gather_2d(self, alloc_id: int, offset: int, rows: int, row_bytes: int,
                  stride: int, out: np.ndarray) -> None:
        """Read a strided 2-D region into ``out`` (shape (rows, row_bytes),
        any strides).  Default: one copying read per row."""
        for r in range(rows):
            out[r] = self.read(alloc_id, offset + r * stride, row_bytes)

    def scatter_2d(self, alloc_id: int, offset: int, rows: int, row_bytes: int,
                   stride: int, data: np.ndarray) -> None:
        """Write ``data`` (shape (rows, row_bytes)) into the strided
        region.  Default: one write per row."""
        for r in range(rows):
            self.write(alloc_id, offset + r * stride, data[r])

    def advise(self, windows) -> None:
        """Will-need advice: ``windows`` is an iterable of ``(alloc_id,
        offset, rows, row_bytes, stride)`` regions, in the order the
        caller expects to ``gather_2d`` / ``read_into`` them (a
        contiguous range is one row).  It replaces any advice given
        before; an empty iterable just cancels.  Advice never changes
        what a read returns.  Default: ignored."""

    # -- shared validation -------------------------------------------------

    def _check_range(self, alloc_id: int, offset: int, nbytes: int,
                     size: int) -> None:
        if offset < 0 or nbytes < 0:
            raise TransferError(
                f"negative offset/size (offset={offset}, nbytes={nbytes})")
        if offset + nbytes > size:
            raise TransferError(
                f"access [{offset}, {offset + nbytes}) out of bounds for "
                f"buffer {alloc_id} of {size} bytes")

    def _check_range_2d(self, alloc_id: int, offset: int, rows: int,
                        row_bytes: int, stride: int, size: int) -> int:
        """Validate a strided window; returns its bounding span."""
        if rows < 0 or row_bytes < 0:
            raise TransferError(
                f"negative rows/row_bytes ({rows}, {row_bytes})")
        if rows and stride < row_bytes:
            raise TransferError(
                f"stride {stride} smaller than the row payload {row_bytes}")
        span = (rows - 1) * stride + row_bytes if rows else 0
        self._check_range(alloc_id, offset, span, size)
        return span


class MemBackend(DataBackend):
    """In-process byte arrays; the simulated-device backend.

    Buffer storage is recycled through an :class:`~repro.core.buffers.
    ArrayPool`: a release followed by a same-size allocation (the
    staging-buffer churn of every chunked program) reuses the retired
    array instead of paying ``np.zeros`` and fresh page faults again.
    Pass ``pool=None`` explicitly via ``ArrayPool(max_bytes=0)`` to
    effectively disable retention.
    """

    def __init__(self, *, pool=None) -> None:
        if pool is None:
            # Deferred import: repro.core.buffers is a leaf module, but
            # importing it at module scope would cycle through the
            # repro.core package __init__ back into repro.memory.
            from repro.core.buffers import ArrayPool
            pool = ArrayPool()
        self.pool = pool
        self._bufs: dict[int, np.ndarray] = {}

    def create(self, alloc_id: int, nbytes: int) -> None:
        if alloc_id in self._bufs:
            raise AllocationError(f"backend already holds id {alloc_id}")
        self._bufs[alloc_id] = self.pool.take(nbytes)

    def destroy(self, alloc_id: int) -> None:
        arr = self._bufs.pop(alloc_id, None)
        if arr is None:
            raise AllocationError(f"backend has no buffer with id {alloc_id}")
        self.pool.give(arr)

    def _buf(self, alloc_id: int) -> np.ndarray:
        try:
            return self._bufs[alloc_id]
        except KeyError:
            raise AllocationError(f"backend has no buffer with id {alloc_id}") from None

    def read(self, alloc_id: int, offset: int, nbytes: int) -> np.ndarray:
        buf = self._buf(alloc_id)
        self._check_range(alloc_id, offset, nbytes, buf.size)
        return buf[offset:offset + nbytes].copy()

    def view(self, alloc_id: int) -> np.ndarray:
        """Zero-copy view of the whole buffer.

        Compute kernels use views to operate in place on leaf buffers,
        mirroring how a GPU kernel works directly on device memory.
        """
        return self._buf(alloc_id)

    def try_view(self, alloc_id: int, offset: int,
                 nbytes: int) -> np.ndarray | None:
        buf = self._buf(alloc_id)
        self._check_range(alloc_id, offset, nbytes, buf.size)
        return buf[offset:offset + nbytes]

    def try_view_2d(self, alloc_id: int, offset: int, rows: int,
                    row_bytes: int, stride: int) -> np.ndarray | None:
        buf = self._buf(alloc_id)
        self._check_range_2d(alloc_id, offset, rows, row_bytes, stride,
                             buf.size)
        return _strided_2d(buf, offset, rows, row_bytes, stride)

    def read_into(self, alloc_id: int, offset: int, out: np.ndarray) -> None:
        buf = self._buf(alloc_id)
        self._check_range(alloc_id, offset, out.size, buf.size)
        np.copyto(out, buf[offset:offset + out.size])

    def gather_2d(self, alloc_id: int, offset: int, rows: int, row_bytes: int,
                  stride: int, out: np.ndarray) -> None:
        src = self.try_view_2d(alloc_id, offset, rows, row_bytes, stride)
        np.copyto(out, src)

    def scatter_2d(self, alloc_id: int, offset: int, rows: int, row_bytes: int,
                   stride: int, data: np.ndarray) -> None:
        dst = self.try_view_2d(alloc_id, offset, rows, row_bytes, stride)
        np.copyto(dst, data)

    def write(self, alloc_id: int, offset: int,
              data: np.ndarray | bytes | bytearray | memoryview) -> None:
        buf = self._buf(alloc_id)
        raw = _as_bytes(data)
        self._check_range(alloc_id, offset, raw.size, buf.size)
        buf[offset:offset + raw.size] = raw

    def size_of(self, alloc_id: int) -> int:
        return self._buf(alloc_id).size

    def close(self) -> None:
        self._bufs.clear()
        self.pool.clear()


class _FdPool:
    """LRU-capped pool of open file descriptors keyed by allocation id.

    The paper's unified API exists to hide per-device interface overhead;
    opening a file per operation is exactly that overhead.  The pool
    keeps descriptors open across operations and closes the least
    recently used one when ``max_open`` is reached, so the backend never
    exceeds a bounded share of the process fd table.
    """

    def __init__(self, max_open: int = 128) -> None:
        if max_open < 1:
            raise ValueError(f"max_open must be positive, got {max_open}")
        self.max_open = max_open
        self._fds: OrderedDict[int, int] = OrderedDict()
        self.opens = 0
        self.hits = 0
        self.evictions = 0

    def get(self, alloc_id: int, path: str) -> int:
        fd = self._fds.get(alloc_id)
        if fd is not None:
            self._fds.move_to_end(alloc_id)
            self.hits += 1
            return fd
        while len(self._fds) >= self.max_open:
            _, old = self._fds.popitem(last=False)
            os.close(old)
            self.evictions += 1
        fd = os.open(path, os.O_RDWR)
        self._fds[alloc_id] = fd
        self.opens += 1
        return fd

    def drop(self, alloc_id: int) -> None:
        fd = self._fds.pop(alloc_id, None)
        if fd is not None:
            os.close(fd)

    def close_all(self) -> None:
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()

    def __len__(self) -> int:
        return len(self._fds)


#: Advised windows smaller than this are read synchronously as before:
#: handing a window to the reader costs a cross-core wake-up (~100 us
#: measured), which at ~1 GB/s of page-cache bandwidth is ~100 KB of
#: reading done in place.
READAHEAD_MIN_BYTES = 256 << 10

#: Side buffers of one reader: one completed window plus one in flight.
#: A third measured +2 MiB of peak RSS on out-of-core GEMM and no speed
#: (``run_s`` 0.300 -> 0.309 s, 1 of 6 pairs).
READAHEAD_BUFFERS = 2

#: Fates of an advised window (``readahead_windows{outcome=...}``):
#: every window counted ``advised`` ends in exactly one of the others.
READAHEAD_OUTCOMES = ("advised", "served", "late", "stale", "skipped",
                      "failed")

_QUEUED, _READING, _READY, _FAILED = range(4)


class _Window:
    """One advised region and where its read-ahead stands."""

    __slots__ = ("key", "path", "lo", "hi", "state", "buf", "dropped")

    def __init__(self, key: tuple, path: str, span: int) -> None:
        #: ``(alloc_id, offset, rows, row_bytes, stride)``, normalised
        #: by :meth:`FileBackend._window_key`.
        self.key = key
        self.path = path
        #: Bounding byte span in the file: what a write must miss.
        self.lo = key[1]
        self.hi = key[1] + span
        self.state = _QUEUED
        self.buf: np.ndarray | None = None
        #: Left the queue while the reader was inside its read; the
        #: reader recycles the buffer instead of publishing it.
        self.dropped = False


def _current_cpu() -> int | None:
    """The CPU the calling thread last ran on, from Linux ``/proc``
    (field 39 of ``stat``); ``None`` where that is unavailable."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _leave_cpu(cpu: int | None) -> None:
    """Take ``cpu`` out of the calling thread's affinity mask (Linux;
    a no-op elsewhere, and when it is the only CPU allowed)."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        rest = os.sched_getaffinity(0) - {cpu}
        if rest:
            os.sched_setaffinity(0, rest)
    except OSError:
        pass


class _ReadAhead:
    """FIFO of advised windows, read ahead by one lazily started thread.

    The owning backend's thread (the *coordinator*) is the only one that
    edits the queue: it appends advice, takes windows, and discards the
    ones a write overlaps.  The reader thread only moves a window
    ``queued -> reading -> ready | failed`` and fills its side buffer
    through ``read(window, out)``, which opens a read-only descriptor of
    its own -- never the backend's :class:`_FdPool`, an unlocked LRU
    whose evicted (closed) descriptor numbers the kernel may hand to
    another file mid-read.

    At most :data:`READAHEAD_BUFFERS` side buffers exist, recycled by
    size; the reader waits while all of them are out (being filled,
    completed and untaken, or lent to a :meth:`take` not yet given
    back).

    The reader leaves the CPU the coordinator was on when it started
    the thread: with both on one core, the read and the kernels it
    should overlap just take turns.
    """

    def __init__(self, read) -> None:
        #: Name of the reader thread (read when it is started).
        self.name = "repro-io-read"
        self._read = read
        self._cv = threading.Condition()
        self._queue: deque[_Window] = deque()
        self._reading: _Window | None = None
        self._free: list[np.ndarray] = []
        self._out = 0
        self._thread: threading.Thread | None = None
        self._closing = False
        self.counts = dict.fromkeys(READAHEAD_OUTCOMES, 0)
        #: Bytes served from side buffers.
        self.bytes = 0
        #: Seconds the coordinator was blocked on an in-flight window.
        self.wait_seconds = 0.0

    # -- coordinator side ----------------------------------------------------

    def advise(self, windows: list[_Window], skipped: int = 0) -> None:
        """Replace all outstanding advice with ``windows``; the backend
        filtered ``skipped`` more windows out of the same advice."""
        if not (windows or skipped or self._queue):
            return
        with self._cv:
            self._drop_all()
            self.counts["advised"] += len(windows) + skipped
            self.counts["skipped"] += skipped
            if not windows:
                return
            self._queue.extend(windows)
            if self._thread is None or not self._thread.is_alive():
                self._closing = False
                self._thread = threading.Thread(
                    target=self._run, args=(_current_cpu(),),
                    name=self.name, daemon=True)
                self._thread.start()
            self._cv.notify_all()

    def take(self, key: tuple) -> np.ndarray | None:
        """The side buffer holding window ``key`` (hand it back with
        :meth:`give` once copied out), or ``None`` when the caller must
        read the file itself.

        Taking a window drops the untaken ones advised before it: their
        reads never came (a cache further up served them).  A window
        the reader has not started is cancelled, one in flight is
        waited for, and a failed one is left to the caller's own read,
        which raises or returns what it would without read-ahead.
        """
        if not self._queue:
            return None
        with self._cv:
            for index, win in enumerate(self._queue):
                if win.key == key:
                    break
            else:
                return None
            for _ in range(index):
                self._drop(self._queue.popleft(), "skipped")
            self._queue.popleft()
            if win.state == _QUEUED:
                self.counts["late"] += 1
                return None
            if win.state == _READING:
                t0 = perf_counter()
                while win.state == _READING:
                    self._cv.wait()
                self.wait_seconds += perf_counter() - t0
            if win.state == _FAILED:
                self.counts["failed"] += 1
                return None
            self.counts["served"] += 1
            self.bytes += win.buf.size
            return win.buf

    def give(self, buf: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`take`."""
        with self._cv:
            self._recycle(buf)

    def discard(self, alloc_id: int, lo: int, hi: int, *,
                wait: bool = False) -> None:
        """Forget every window of ``alloc_id`` that overlaps bytes
        ``[lo, hi)`` -- queued, in flight or completed: those bytes are
        about to change.  ``wait`` also blocks until the reader is out
        of that file (it is about to be removed)."""
        if not self._queue and not (wait and self._reading is not None):
            return
        with self._cv:
            keep: deque[_Window] = deque()
            for win in self._queue:
                if win.key[0] == alloc_id and win.lo < hi and lo < win.hi:
                    self._drop(win, "stale")
                else:
                    keep.append(win)
            self._queue = keep
            while wait and self._reading is not None \
                    and self._reading.key[0] == alloc_id:
                self._cv.wait()

    def close(self) -> None:
        """Cancel everything and stop the reader, waiting out its read."""
        thread = self._thread
        with self._cv:
            self._drop_all()
            self._closing = True
            self._cv.notify_all()
        if thread is not None:
            thread.join()
            self._thread = None
        self._free.clear()

    def _drop_all(self) -> None:
        while self._queue:
            self._drop(self._queue.popleft(), "skipped")

    def _drop(self, win: _Window, outcome: str) -> None:
        """Account for an untaken window leaving the queue (lock held)."""
        self.counts[outcome] += 1
        if win.state == _READING:
            win.dropped = True
        elif win.state == _READY:
            self._recycle(win.buf)
            win.buf = None

    def _recycle(self, buf: np.ndarray | None) -> None:
        """One buffer fewer is out (lock held)."""
        self._out -= 1
        if buf is not None:
            self._free.append(buf)
        self._cv.notify_all()

    # -- reader side -----------------------------------------------------------

    def _next(self) -> _Window | None:
        if self._out >= READAHEAD_BUFFERS:
            return None
        return next((w for w in self._queue if w.state == _QUEUED), None)

    def _free_buffer(self, nbytes: int) -> np.ndarray | None:
        """A free side buffer of exactly ``nbytes``; failing that, room
        for the caller to allocate one (lock held, ``_out`` counted)."""
        for i, buf in enumerate(self._free):
            if buf.size == nbytes:
                return self._free.pop(i)
        del self._free[:max(0, self._out + len(self._free)
                            - READAHEAD_BUFFERS)]
        return None

    def _run(self, coordinator_cpu: int | None) -> None:
        _leave_cpu(coordinator_cpu)
        cv = self._cv
        while True:
            with cv:
                while not self._closing:
                    win = self._next()
                    if win is not None:
                        break
                    cv.wait()
                else:
                    return
                win.state = _READING
                self._reading = win
                self._out += 1
                nbytes = win.key[2] * win.key[3]
                buf = self._free_buffer(nbytes)
            complete = False
            try:
                if buf is None:
                    buf = np.empty(nbytes, dtype=np.uint8)
                complete = self._read(win, buf)
            except OSError:
                pass  # the coordinator's own read reports it
            finally:
                # Whatever happened, the window leaves ``reading``: a
                # coordinator blocked in take() must never hang.
                with cv:
                    self._reading = None
                    if complete and not win.dropped:
                        win.buf = buf
                        win.state = _READY
                    else:
                        win.state = _FAILED
                        self._recycle(buf)
                    cv.notify_all()


class FileBackend(DataBackend):
    """Real files on disk; the genuine out-of-core backend.

    Each buffer is one file under ``root``.  Files are created sparse
    (``truncate``), so allocating a large output buffer does not write
    zeros.  ``fsync`` on write is optional and mirrors the paper's use of
    ``O_SYNC`` for storage writes ("guarantee that the call is synchronous
    when writing to the storage").

    I/O goes through a persistent descriptor pool (:class:`_FdPool`) with
    positioned reads and writes: no per-operation ``open``/``seek``, and
    writes hand NumPy arrays straight to ``os.pwrite`` (buffer protocol)
    instead of staging through ``.tobytes()``.

    ``close`` removes the root directory only if this backend created
    it; a user-supplied directory that already existed survives
    teardown (minus the buffer files themselves).

    :meth:`advise` queues windows of at least
    :data:`READAHEAD_MIN_BYTES` on :attr:`readahead`, whose reader
    thread (``repro-io-read-<label>``) starts with the first window
    queued.  Every physical write to a file goes through
    ``write`` / ``scatter_2d`` / ``destroy`` on the caller's thread, and
    each first discards the advised windows whose byte span it
    overlaps, so a served window holds exactly the bytes a synchronous
    read at that point would return.
    """

    #: A strided file window is fetched with vectored spanning reads when
    #: the inter-row gap bytes are cheap relative to the per-row syscalls
    #: they replace: dense when the window is small in absolute terms
    #: (``span <= SPAN_MIN``) or the total gap is at most
    #: ``SPAN_GAP_BYTES`` per row -- roughly the bytes one positioned
    #: read's overhead is worth at page-cache bandwidth.  Beyond that,
    #: per-row reads skip the gaps instead of paying to read them.
    SPAN_MIN = 64 << 10
    SPAN_GAP_BYTES = 8 << 10

    def __init__(self, root: str, *, sync_writes: bool = False,
                 max_open_fds: int = 128) -> None:
        self.root = root
        self.sync_writes = sync_writes
        self._owns_root = not os.path.isdir(root)
        os.makedirs(root, exist_ok=True)
        self._paths: dict[int, str] = {}
        self._sizes: dict[int, int] = {}
        self._fds = _FdPool(max_open_fds)
        #: The advised-window queue and its reader (see :meth:`advise`).
        self.readahead = _ReadAhead(self._read_ahead)

    def _path(self, alloc_id: int) -> str:
        try:
            return self._paths[alloc_id]
        except KeyError:
            raise AllocationError(f"backend has no file for id {alloc_id}") from None

    def _fd(self, alloc_id: int) -> int:
        return self._fds.get(alloc_id, self._path(alloc_id))

    def create(self, alloc_id: int, nbytes: int) -> None:
        if alloc_id in self._paths:
            raise AllocationError(f"backend already holds id {alloc_id}")
        path = os.path.join(self.root, f"buf_{alloc_id:08d}.bin")
        with open(path, "wb") as fh:
            fh.truncate(nbytes)
        self._paths[alloc_id] = path
        self._sizes[alloc_id] = nbytes

    def destroy(self, alloc_id: int) -> None:
        path = self._paths.pop(alloc_id, None)
        if path is None:
            raise AllocationError(f"backend has no file for id {alloc_id}")
        self.readahead.discard(alloc_id, 0, self._sizes.pop(alloc_id),
                               wait=True)
        self._fds.drop(alloc_id)
        try:
            os.remove(path)
        except FileNotFoundError:  # pragma: no cover - external interference
            pass

    # The raw reads below take an explicit descriptor and touch no
    # backend state: the public methods pass the pooled one, the
    # read-ahead thread one of its own.  Each returns whether the file
    # covered the whole request.

    @staticmethod
    def _pread_into(fd: int, offset: int, out: np.ndarray) -> bool:
        """One positioned read straight into ``out`` (uint8, contiguous).
        A short read (defensive; files are sized at create) leaves the
        sparse-tail semantics intact: the unread remainder reads as
        zero."""
        got = os.preadv(fd, [out], offset)
        if got < out.size:
            out[got:] = 0
            return False
        return True

    def read(self, alloc_id: int, offset: int, nbytes: int) -> np.ndarray:
        self._check_range(alloc_id, offset, nbytes,
                          self._sizes[self._require(alloc_id)])
        out = np.empty(nbytes, dtype=np.uint8)
        self._pread_into(self._fd(alloc_id), offset, out)
        return out

    def _require(self, alloc_id: int) -> int:
        self._path(alloc_id)
        return alloc_id

    def read_into(self, alloc_id: int, offset: int, out: np.ndarray) -> None:
        self._check_range(alloc_id, offset, out.size,
                          self._sizes[self._require(alloc_id)])
        if self._serve_ahead((alloc_id, offset, 1, out.size, out.size), out):
            return
        if out.flags.c_contiguous:
            self._pread_into(self._fd(alloc_id), offset, out)
        else:
            scratch = np.empty(out.size, dtype=np.uint8)
            self._pread_into(self._fd(alloc_id), offset, scratch)
            out[...] = scratch.reshape(out.shape)

    def _span_is_dense(self, rows: int, row_bytes: int, span: int) -> bool:
        gap_total = span - rows * row_bytes
        return span <= self.SPAN_MIN or gap_total <= rows * self.SPAN_GAP_BYTES

    def gather_2d(self, alloc_id: int, offset: int, rows: int, row_bytes: int,
                  stride: int, out: np.ndarray) -> None:
        span = self._check_range_2d(alloc_id, offset, rows, row_bytes, stride,
                                    self._sizes[self._require(alloc_id)])
        if not rows or not row_bytes:
            return
        if self._serve_ahead(
                self._window_key(alloc_id, offset, rows, row_bytes, stride),
                out):
            return
        self._gather_fd(self._fd(alloc_id), offset, rows, row_bytes, stride,
                        span, out)

    def _gather_fd(self, fd: int, offset: int, rows: int, row_bytes: int,
                   stride: int, span: int, out: np.ndarray) -> bool:
        """The strided read behind :meth:`gather_2d` (bounds checked by
        the caller)."""
        if stride == row_bytes and out.flags.c_contiguous:
            # Contiguous window: the whole shard is one positioned read.
            return self._pread_into(fd, offset, out.reshape(-1))
        if self._span_is_dense(rows, row_bytes, span):
            if out.ndim == 2 and out.strides[1] == 1:
                # True vectored read: one preadv per IOV_MAX-sized batch
                # with destination rows as iovecs and the inter-row gaps
                # landing in a single reused (cache-hot) scrap buffer --
                # no spanning temp, no second gather pass.
                return self._preadv_scatter(fd, offset, rows, row_bytes,
                                            stride, out)
            # Destination rows are not contiguous: spanning read into a
            # temp, then a strided gather in memory.
            buf = np.empty(span, dtype=np.uint8)
            complete = self._pread_into(fd, offset, buf)
            np.copyto(out, _strided_2d(buf, 0, rows, row_bytes, stride))
            return complete
        # Sparse window: per-row positioned reads, straight into the
        # destination rows when they are contiguous.
        complete = True
        if out.ndim == 2 and out.strides[1] == 1:
            for r in range(rows):
                got = os.preadv(fd, [out[r]], offset + r * stride)
                if got < row_bytes:
                    out[r, got:] = 0
                    complete = False
            return complete
        row = np.empty(row_bytes, dtype=np.uint8)
        for r in range(rows):
            got = os.preadv(fd, [row], offset + r * stride)
            if got < row_bytes:
                row[got:] = 0
                complete = False
            out[r] = row
        return complete

    #: iovec budget per ``preadv`` call (conservative vs IOV_MAX=1024).
    _IOV_BATCH = 1024

    def _preadv_scatter(self, fd: int, offset: int, rows: int,
                        row_bytes: int, stride: int,
                        out: np.ndarray) -> bool:
        """Gather a strided file window with vectored positioned reads.

        Each ``preadv`` consumes the file span contiguously while the
        iovec list scatters it: payload rows straight into ``out``,
        gap bytes into one scrap buffer reused for every gap.  Short
        reads (sparse tails) zero-fill the unreached row remainders.
        """
        gap = stride - row_bytes
        scrap = np.empty(gap, dtype=np.uint8) if gap else None
        rows_per_call = max(1, self._IOV_BATCH // 2)
        complete = True
        r0 = 0
        while r0 < rows:
            batch = min(rows - r0, rows_per_call)
            iov: list[np.ndarray] = []
            expected = 0
            for r in range(r0, r0 + batch):
                iov.append(out[r])
                expected += row_bytes
                if scrap is not None and r != rows - 1:
                    iov.append(scrap)
                    expected += gap
            got = os.preadv(fd, iov, offset + r0 * stride)
            if got < expected:
                # EOF inside the batch: zero everything past ``got``.
                complete = False
                rem = got
                for r in range(r0, r0 + batch):
                    take = min(rem, row_bytes)
                    rem -= take
                    if take < row_bytes:
                        out[r, take:] = 0
                    if r != rows - 1:
                        rem -= min(rem, gap)
            r0 += batch
        return complete

    def scatter_2d(self, alloc_id: int, offset: int, rows: int, row_bytes: int,
                   stride: int, data: np.ndarray) -> None:
        span = self._check_range_2d(alloc_id, offset, rows, row_bytes, stride,
                                    self._sizes[self._require(alloc_id)])
        if not rows or not row_bytes:
            return
        self.readahead.discard(alloc_id, offset, offset + span)
        fd = self._fd(alloc_id)
        if stride == row_bytes:
            packed = data if data.flags.c_contiguous else \
                np.ascontiguousarray(data)
            os.pwrite(fd, packed.reshape(-1), offset)
        elif self._span_is_dense(rows, row_bytes, span):
            # Read-modify-write of the bounding span: one read, one
            # vectored scatter in memory, one write.  Gap bytes are
            # preserved by the read.
            buf = np.empty(span, dtype=np.uint8)
            self._pread_into(fd, offset, buf)
            np.copyto(_strided_2d(buf, 0, rows, row_bytes, stride), data)
            os.pwrite(fd, buf, offset)
        else:
            for r in range(rows):
                row = data[r] if data[r].flags.c_contiguous else \
                    np.ascontiguousarray(data[r])
                os.pwrite(fd, row, offset + r * stride)
        if self.sync_writes:
            os.fsync(fd)

    def write(self, alloc_id: int, offset: int,
              data: np.ndarray | bytes | bytearray | memoryview) -> None:
        raw = _as_bytes(data)
        self._check_range(alloc_id, offset, raw.size,
                          self._sizes[self._require(alloc_id)])
        self.readahead.discard(alloc_id, offset, offset + raw.size)
        fd = self._fd(alloc_id)
        os.pwrite(fd, raw, offset)
        if self.sync_writes:
            os.fsync(fd)

    # -- read-ahead ------------------------------------------------------------

    @staticmethod
    def _window_key(alloc_id: int, offset: int, rows: int, row_bytes: int,
                    stride: int) -> tuple:
        """Identity of a window; a contiguous one is a single row
        however the caller cut it."""
        if stride == row_bytes or rows == 1:
            nbytes = rows * row_bytes
            return (alloc_id, offset, 1, nbytes, nbytes)
        return (alloc_id, offset, rows, row_bytes, stride)

    def advise(self, windows) -> None:
        """Queue ``windows`` for the reader thread, replacing earlier
        advice.  Left out (and read synchronously, as without advice):
        windows under :data:`READAHEAD_MIN_BYTES`; a window equal to the
        one advised just before it for the same file (a cache above
        serves the repeats, reading it again would only burn
        bandwidth); windows no read would accept."""
        ahead = self.readahead
        queued: list[_Window] = []
        previous: dict[int, tuple] = {}
        total = 0
        for alloc_id, offset, rows, row_bytes, stride in windows:
            total += 1
            if rows * row_bytes < READAHEAD_MIN_BYTES:
                continue
            key = self._window_key(alloc_id, offset, rows, row_bytes, stride)
            if previous.get(alloc_id) == key:
                continue
            previous[alloc_id] = key
            path = self._paths.get(alloc_id)
            span = (key[2] - 1) * key[4] + key[3]
            if path is None or rows < 1 or key[4] < key[3] or offset < 0 \
                    or offset + span > self._sizes[alloc_id]:
                continue
            queued.append(_Window(key, path, span))
        if queued:
            ahead.name = f"repro-io-read-{self.label or 'file'}"
        ahead.advise(queued, total - len(queued))

    def _serve_ahead(self, key: tuple, out: np.ndarray) -> bool:
        """Fill ``out`` from the side buffer of advised window ``key``,
        if the reader has it."""
        buf = self.readahead.take(key)
        if buf is None:
            return False
        np.copyto(out, buf.reshape(out.shape))
        self.readahead.give(buf)
        return True

    def _read_ahead(self, win: _Window, buf: np.ndarray) -> bool:
        """Reader-thread body: fetch ``win`` packed row-major into
        ``buf`` through a descriptor of the reader's own.  False when
        the file ended inside the window -- the caller then reads it
        itself, as it would have."""
        _, offset, rows, row_bytes, stride = win.key
        fd = os.open(win.path, os.O_RDONLY)
        try:
            return self._gather_fd(fd, offset, rows, row_bytes, stride,
                                   win.hi - win.lo,
                                   buf.reshape(rows, row_bytes))
        finally:
            os.close(fd)

    def size_of(self, alloc_id: int) -> int:
        self._path(alloc_id)
        return self._sizes[alloc_id]

    @property
    def open_fds(self) -> int:
        """Descriptors currently held by the pool (observability)."""
        return len(self._fds)

    def close(self) -> None:
        self.readahead.close()
        for alloc_id in list(self._paths):
            self.destroy(alloc_id)
        self._fds.close_all()
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)
