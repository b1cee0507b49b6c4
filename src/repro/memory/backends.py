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
``gather_2d`` / ``scatter_2d``
    Vectored transfers of one *window*: ``rows`` runs of ``row_bytes``
    every ``stride`` bytes, a contiguous range being the one-row window
    (:func:`window_key`).  A dense window is one slice copy or one
    positioned read/write; a gapped row shard or ghost zone moves as one
    strided NumPy copy (over a read-only map of a file's span, or into
    a file's write-combining row band) instead of a Python loop of
    per-row calls.  ``read_into`` is the one-row gather into a
    caller-provided array.

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

import mmap
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


def window_key(offset: int, rows: int, row_bytes: int,
               stride: int) -> tuple[int, int, int, int]:
    """Identity of the window of ``rows`` runs of ``row_bytes`` every
    ``stride`` bytes from ``offset``: a dense one (one row, or rows back
    to back) is a single row however the caller cut it.  The buffer
    cache and the read-ahead queue both key windows on this."""
    if rows == 1 or stride == row_bytes:
        nbytes = rows * row_bytes
        return (offset, 1, nbytes, nbytes)
    return (offset, rows, row_bytes, stride)


def _strided_2d(buf: np.ndarray, offset: int, rows: int, row_bytes: int,
                stride: int) -> np.ndarray:
    """A (rows, row_bytes) window over ``buf`` starting at ``offset``:
    a slice for a dense window, ``as_strided`` (ten times the cost)
    only for a gapped one.  Caller has validated the bounds."""
    if rows == 1:
        return buf[None, offset:offset + row_bytes]
    if stride == row_bytes:
        return buf[offset:offset + rows * row_bytes].reshape(rows, row_bytes)
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

    # -- views (optional; safe defaults) and strided windows --------------

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
        """Fill ``out`` (1-D or C-contiguous uint8, ``out.size`` bytes)
        from ``offset``: the one-row window of :meth:`gather_2d`."""
        self.gather_2d(alloc_id, offset, 1, out.size, out.size,
                       out.reshape(1, out.size))

    @abstractmethod
    def gather_2d(self, alloc_id: int, offset: int, rows: int, row_bytes: int,
                  stride: int, out: np.ndarray) -> None:
        """Read a strided 2-D region into ``out`` (shape (rows, row_bytes),
        any strides)."""

    @abstractmethod
    def scatter_2d(self, alloc_id: int, offset: int, rows: int, row_bytes: int,
                   stride: int, data: np.ndarray) -> None:
        """Write ``data`` (shape (rows, row_bytes)) into the strided
        region."""

    def advise(self, windows) -> None:
        """Will-need advice: ``windows`` is an iterable of ``(alloc_id,
        offset, rows, row_bytes, stride)`` regions, in the order the
        caller expects to ``gather_2d`` / ``read_into`` them (a
        contiguous range is one row).  It replaces any advice given
        before; an empty iterable just cancels.  Advice never changes
        what a read returns.  Default: ignored."""

    def flush(self) -> None:
        """Write out any bytes held back from the backing storage, so
        it is current.  Default: nothing is held back."""

    def collect_metrics(self, reg, labels: dict) -> None:
        """Gauge this backend's counters at node ``labels`` (none)."""

    def path_of(self, alloc_id: int, lo: int, hi: int) -> str | None:
        """The file another process can read ``alloc_id``'s bytes
        ``[lo, hi)`` from, current on disk, or ``None``: the bytes live
        in this process's memory (the default)."""
        return None

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
        """Validate a window; returns its bounding span."""
        if rows < 0 or row_bytes < 0:
            raise TransferError(
                f"negative rows/row_bytes ({rows}, {row_bytes})")
        if rows > 1 and stride < row_bytes:
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

    def collect_metrics(self, reg, labels: dict) -> None:
        for name in ("reuses", "fresh", "retired", "dropped", "held_bytes"):
            reg.gauge(f"array_pool_{name}", getattr(self.pool, name),
                      labels=labels)


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

#: Span of file a gapped gather maps at a time (one row when a row is
#: longer): bounds the file pages one gather adds to the resident set.
MAP_BAND_BYTES = 4 << 20

_QUEUED, _READING, _READY, _FAILED = range(4)


class _Window:
    """One advised region and where its read-ahead stands."""

    __slots__ = ("key", "path", "lo", "hi", "state", "buf", "dropped")

    def __init__(self, key: tuple, path: str, span: int) -> None:
        #: ``(alloc_id, offset, rows, row_bytes, stride)``, normalised
        #: by :func:`window_key`.
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

    @property
    def pending(self) -> bool:
        """Is any advised window still outstanding?"""
        return bool(self._queue)

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
    queued.  Every change to a file's bytes is a ``write`` /
    ``scatter_2d`` / ``destroy`` on the caller's thread, and each first
    discards the advised windows whose byte span it overlaps, so a
    served window holds exactly the bytes a synchronous read at that
    point would return.

    A gapped :meth:`scatter_2d` with a dense span lands in the one
    dirty *row band* (``rows x stride`` bytes from its first row's
    start) instead of paying a read-modify-write per tile.  An overlapping
    access or advice, a scatter to another band, or :meth:`flush` writes
    the band out: one ``pwrite`` when its tiles covered every column,
    else one read-modify-write.  ``sync_writes`` writes it at once.
    """

    #: A gapped scatter goes to a row band when its span is small
    #: (``<= SPAN_MIN``) or gaps at most ``SPAN_GAP_BYTES`` per row, about
    #: one ``pwrite``'s overhead; else per-row writes skip the gaps.
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
        #: ``((alloc_id, first byte, rows, stride), bytes, columns
        #: written)`` of the dirty row band, or ``None``.
        self._band: tuple | None = None
        #: Row bands written out, by whether their tiles covered them.
        self.bands = {"whole": 0, "merged": 0}

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
        if self._band is not None and self._band[0][0] == alloc_id:
            self._band = None
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
    # covered the whole request; when it did not, the public methods
    # raise (see :meth:`_short_read`).

    @staticmethod
    def _pread_into(fd: int, offset: int, out: np.ndarray) -> bool:
        """One positioned read straight into ``out`` (uint8, C-contiguous,
        any shape); False when the file ends first."""
        return os.preadv(fd, [out], offset) == out.size

    def _short_read(self, alloc_id: int, fd: int, offset: int,
                    nbytes: int) -> TransferError:
        """The error for a read the file ends inside of (cut outside)."""
        return TransferError(
            f"read of buffer {alloc_id} ({self._paths[alloc_id]}) at offset "
            f"{offset}: the file ends at byte {os.fstat(fd).st_size}, inside "
            f"the {nbytes} bytes asked for")

    def read(self, alloc_id: int, offset: int, nbytes: int) -> np.ndarray:
        self._check_range(alloc_id, offset, nbytes, self.size_of(alloc_id))
        self._flush_over(alloc_id, offset, offset + nbytes)
        out = np.empty(nbytes, dtype=np.uint8)
        fd = self._fd(alloc_id)
        if not self._pread_into(fd, offset, out):
            raise self._short_read(alloc_id, fd, offset, nbytes)
        return out

    def _span_is_dense(self, rows: int, row_bytes: int, span: int) -> bool:
        gap_total = span - rows * row_bytes
        return span <= self.SPAN_MIN or gap_total <= rows * self.SPAN_GAP_BYTES

    def gather_2d(self, alloc_id: int, offset: int, rows: int, row_bytes: int,
                  stride: int, out: np.ndarray) -> None:
        span = self._check_range_2d(alloc_id, offset, rows, row_bytes, stride,
                                    self.size_of(alloc_id))
        if not rows or not row_bytes:
            return
        self._flush_over(alloc_id, offset, offset + span)
        if self.readahead.pending and self._serve_ahead(
                (alloc_id, *window_key(offset, rows, row_bytes, stride)), out):
            return
        fd = self._fd(alloc_id)
        if not self._gather_fd(fd, offset, rows, row_bytes, stride, out):
            raise self._short_read(alloc_id, fd, offset, span)

    @staticmethod
    def _gather_fd(fd: int, offset: int, rows: int, row_bytes: int,
                   stride: int, out: np.ndarray) -> bool:
        """The read behind :meth:`gather_2d` (bounds checked by the
        caller): one positioned read for a dense window into a
        C-contiguous ``out``, else one strided ``np.copyto`` per read-only
        shared map (coherent with ``pwrite``) of :data:`MAP_BAND_BYTES`
        of span.  False when the file ends inside the window (what
        ``out`` then holds is undefined); a gapped window is then not
        mapped at all, as a map past the end would fault."""
        if (rows == 1 or stride == row_bytes) and out.flags.c_contiguous:
            return FileBackend._pread_into(fd, offset, out)
        stride = row_bytes if rows == 1 else stride
        if offset + (rows - 1) * stride + row_bytes > os.fstat(fd).st_size:
            return False
        per_band = max(1, MAP_BAND_BYTES // stride)
        for r0 in range(0, rows, per_band):
            n = min(rows - r0, per_band)
            lo = offset + r0 * stride
            base = lo - lo % mmap.ALLOCATIONGRANULARITY
            with mmap.mmap(fd, lo - base + (n - 1) * stride + row_bytes,
                           prot=mmap.PROT_READ, offset=base) as mapped:
                src = np.frombuffer(mapped, np.uint8)
                np.copyto(out[r0:r0 + n],
                          _strided_2d(src, lo - base, n, row_bytes, stride))
                # Every view of the map goes before the map closes.
                del src
        return True

    def scatter_2d(self, alloc_id: int, offset: int, rows: int, row_bytes: int,
                   stride: int, data: np.ndarray) -> None:
        span = self._check_range_2d(alloc_id, offset, rows, row_bytes, stride,
                                    self.size_of(alloc_id))
        if not rows or not row_bytes:
            return
        self.readahead.discard(alloc_id, offset, offset + span)
        dense = rows == 1 or stride == row_bytes
        if not dense and self._span_is_dense(rows, row_bytes, span):
            col = offset % stride
            if col + row_bytes > stride:
                col = 0                     # across a row start: own band
            key = (alloc_id, offset - col, rows, stride)
            if self._band is None or self._band[0] != key:
                self.flush()
                self._band = (key, np.empty((rows, stride), np.uint8),
                              np.zeros(stride, bool))
            np.copyto(self._band[1][:, col:col + row_bytes], data)
            self._band[2][col:col + row_bytes] = True
            if not self.sync_writes:
                return
            self.flush()
        else:
            self._flush_over(alloc_id, offset, offset + span)
            fd = self._fd(alloc_id)
            # A dense window is one write, a sparse one one per row.
            for r, row in enumerate([data] if dense else data):
                self._pwrite(alloc_id, fd, np.ascontiguousarray(row),
                             offset + r * stride)
        if self.sync_writes:
            os.fsync(self._fd(alloc_id))

    def write(self, alloc_id: int, offset: int,
              data: np.ndarray | bytes | bytearray | memoryview) -> None:
        raw = _as_bytes(data)
        self._check_range(alloc_id, offset, raw.size, self.size_of(alloc_id))
        self.readahead.discard(alloc_id, offset, offset + raw.size)
        self._flush_over(alloc_id, offset, offset + raw.size)
        fd = self._fd(alloc_id)
        self._pwrite(alloc_id, fd, raw, offset)
        if self.sync_writes:
            os.fsync(fd)

    def _pwrite(self, alloc_id: int, fd: int, data: np.ndarray,
                offset: int) -> None:
        """Write all of C-contiguous ``data`` at ``offset``, resuming
        short writes; a failed write, or one that makes no progress, is
        a :class:`TransferError` naming the buffer, its file and where."""
        done = 0
        while done < data.nbytes:
            rest = _as_bytes(data)[done:] if done else data
            try:
                wrote = os.pwrite(fd, rest, offset + done)
                if wrote <= 0:
                    raise OSError("no bytes written")
            except OSError as exc:
                raise TransferError(
                    f"write to buffer {alloc_id} ({self._paths[alloc_id]}) "
                    f"at offset {offset + done} failed: {exc}") from exc
            done += wrote

    def _flush_over(self, alloc_id: int, lo: int, hi: int) -> None:
        """Write the band out first if it holds bytes of ``alloc_id``
        in ``[lo, hi)``."""
        band = self._band
        if band is not None and band[0][0] == alloc_id \
                and band[0][1] < hi and lo < band[0][1] + band[1].size:
            self.flush()

    def path_of(self, alloc_id: int, lo: int, hi: int) -> str | None:
        """The buffer's file, once a dirty row band over ``[lo, hi)``
        is written out; ``None`` for a destroyed buffer."""
        if alloc_id not in self._paths:
            return None
        self._flush_over(alloc_id, lo, hi)
        return self._paths[alloc_id]

    def flush(self) -> None:
        """Write the dirty row band out (up to the end of its file):
        alone when its tiles covered every column, else over the file's
        bytes in the other columns.  A failed read or write raises here,
        and the band is gone either way."""
        band, self._band = self._band, None
        if band is None:
            return
        (alloc_id, base, _, _), grid, written = band
        fd = self._fd(alloc_id)
        flat = grid.reshape(-1)[:self._sizes[alloc_id] - base]
        whole = bool(written.all())
        if not whole:
            old = np.empty_like(flat)
            if not self._pread_into(fd, base, old):
                raise self._short_read(alloc_id, fd, base, old.size)
            np.copyto(flat, old, where=~np.resize(written, flat.size))
        self.bands["whole" if whole else "merged"] += 1
        self._pwrite(alloc_id, fd, flat, base)

    # -- read-ahead ------------------------------------------------------------

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
            key = (alloc_id, *window_key(offset, rows, row_bytes, stride))
            if previous.get(alloc_id) == key:
                continue
            previous[alloc_id] = key
            path = self._paths.get(alloc_id)
            span = (key[2] - 1) * key[4] + key[3]
            if path is None or rows < 1 or key[4] < key[3] or offset < 0 \
                    or offset + span > self._sizes[alloc_id]:
                continue
            self._flush_over(alloc_id, offset, offset + span)
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
        the file ends inside the window, which then fails: the
        coordinator reads it itself and raises, as it would have."""
        _, offset, rows, row_bytes, stride = win.key
        fd = os.open(win.path, os.O_RDONLY)
        try:
            return self._gather_fd(fd, offset, rows, row_bytes, stride,
                                   buf.reshape(rows, row_bytes))
        finally:
            os.close(fd)

    def size_of(self, alloc_id: int) -> int:
        self._path(alloc_id)
        return self._sizes[alloc_id]

    def collect_metrics(self, reg, labels: dict) -> None:
        for name in ("opens", "hits", "evictions"):
            reg.gauge(f"fd_pool_{name}", getattr(self._fds, name),
                      labels=labels)
        ahead = self.readahead
        for outcome, count in ahead.counts.items():
            reg.gauge("readahead_windows", count,
                      labels=dict(labels, outcome=outcome),
                      help_text="advised file windows by fate")
        reg.gauge("readahead_bytes", ahead.bytes, labels=labels,
                  help_text="bytes served from read-ahead buffers")
        reg.gauge("readahead_wait_seconds", ahead.wait_seconds, labels=labels,
                  help_text="coordinator blocked on an in-flight window")
        for outcome, count in self.bands.items():
            reg.gauge("write_bands", count,
                      labels=dict(labels, outcome=outcome),
                      help_text="row bands written, whole or merged")

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
