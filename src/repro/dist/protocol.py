"""Wire protocol between the coordinator and dist workers.

One duplex pipe per worker carries these messages:

* :class:`TaskGrant` (coordinator -> worker) -- one kernel dispatch:
  the ``module:qualname`` entry point, its operands (the slab
  shipment), kwargs, and the owning task-graph node / partition for
  failure attribution;
* :class:`~repro.exec.pool.CompletionAck` (worker -> coordinator) --
  the ticket's outcome, the same reply the shm pool uses: measured
  kernel seconds, the writable output arrays shipped back, or a
  formatted traceback on failure;
* :data:`SHUTDOWN` (coordinator -> worker) -- drain and exit.

Every message, in both directions, travels as one byte stream written
by :func:`write` from the iovecs :func:`encode` builds and read by
:func:`recv_message`: an 8-byte word of a 4-byte magic and the 4-byte
length of the *header frame*
``pickle((head, [sizes]))`` -- ``head`` is the protocol-5 pickle of the
message with its array payloads of :data:`OUT_OF_BAND_MIN` bytes and
more taken out of band -- and then the raw out-of-band buffers back to
back, their sizes being in the frame.  Out, one ``os.writev`` loop
sends straight from the arrays' memory; in, ``os.readv`` lands each
buffer straight in the array ``take`` supplies, which the unpickled
array then wraps.  No frame is copied between the pipe and its final
buffer, and small arrays ride in the header frame.  A peer gone
mid-message is :class:`EOFError`; bytes that are not a message are
:class:`pickle.UnpicklingError` -- a stream that lost or repeated bytes
fails at the next magic instead of waiting on a plausible length.

Determinism does not come from the wire: acks arrive in any order and
are stashed; the :class:`~repro.exec.ledger.PendingLedger` merges
results in submission order, exactly as for the shared-memory pool.
"""

from __future__ import annotations

import os
import pickle
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.exec.pool import CompletionAck  # noqa: F401  (re-exported)

#: Coordinator -> worker sentinel: drain the pipe and exit.
SHUTDOWN = "shutdown"

#: Buffers smaller than this stay inside the header frame: for a small
#: array one more memcpy is cheaper than one more buffer to take and
#: fill (measured when each buffer was a pipe message of its own).
OUT_OF_BAND_MIN = 8192

#: The word before a message's header frame: magic, frame length.
_LENGTH = struct.Struct("!4sI")
_MAGIC = b"NrtH"
#: The longest header frame the length word can carry.
FRAME_MAX = 2 ** 32 - 1

#: Most iovecs one ``readv``/``writev`` call takes.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _fresh(nbytes: int) -> np.ndarray:
    return np.empty(nbytes, dtype=np.uint8)


def encode(obj) -> tuple[list, int]:
    """``obj`` as one message: ``(iovecs, wire_bytes)``.  The
    out-of-band iovecs are views of ``obj``'s arrays, not copies."""
    raws: list[memoryview] = []

    def out_of_band(buf: pickle.PickleBuffer):
        raw = buf.raw()
        if raw.nbytes < OUT_OF_BAND_MIN:
            return True             # pickle it in band
        raws.append(raw)

    head = pickle.dumps(obj, protocol=5, buffer_callback=out_of_band)
    sizes = [r.nbytes for r in raws]
    frame = pickle.dumps((head, sizes), protocol=5)
    if len(frame) > FRAME_MAX:
        raise ValueError(f"header frame of {len(frame)} bytes exceeds "
                         f"the {FRAME_MAX}-byte limit")
    return ([_LENGTH.pack(_MAGIC, len(frame)), frame, *raws],
            _LENGTH.size + len(frame) + sum(sizes))


def _transfer(call, fd: int, buffers) -> None:
    """``call`` (``os.readv`` / ``os.writev``) on ``fd`` until every
    byte of ``buffers`` is done, resuming after each short transfer."""
    views = [v for v in (memoryview(b).cast("B") for b in buffers)
             if v.nbytes]
    i = 0
    while i < len(views):
        n = call(fd, views[i:i + _IOV_MAX])
        if n == 0:
            raise EOFError("peer closed the pipe")
        while i < len(views) and n >= views[i].nbytes:
            n -= views[i].nbytes
            i += 1
        if n:
            views[i] = views[i][n:]


def write(fd: int, iovecs) -> None:
    """Put every byte of ``iovecs`` (from :func:`encode`) on ``fd``."""
    _transfer(os.writev, fd, iovecs)


def send_message(conn, obj) -> int:
    """Write ``obj`` to ``conn``; returns the bytes put on the wire."""
    iovecs, wire = encode(obj)
    write(conn.fileno(), iovecs)
    return wire


@contextmanager
def _corrupt():
    try:
        yield
    except Exception as exc:
        raise pickle.UnpicklingError(
            f"not a dist message: {type(exc).__name__}: {exc}") from exc


def recv_message(conn, take=_fresh) -> tuple:
    """Read one message: ``(obj, buffers, wire_bytes)``.

    ``take(nbytes)`` supplies the writable uint8 array each out-of-band
    buffer lands in (a pool, on the coordinator); the arrays inside
    ``obj`` are views of those ``buffers``, so whoever recycles them
    must be done with ``obj`` first.  Raises :class:`EOFError` /
    :class:`OSError` when the peer is gone, before or inside a message,
    and :class:`pickle.UnpicklingError` on bytes that are not one.
    """
    fd = conn.fileno()
    length = bytearray(_LENGTH.size)
    _transfer(os.readv, fd, [length])
    magic, size = _LENGTH.unpack(length)
    if magic != _MAGIC:
        raise pickle.UnpicklingError(
            f"not a dist message: bad magic {bytes(length)!r}")
    with _corrupt():
        frame = _fresh(size)
    _transfer(os.readv, fd, [frame])
    with _corrupt():
        head, sizes = pickle.loads(frame)
        buffers = [take(n) for n in sizes]
    _transfer(os.readv, fd, buffers)
    with _corrupt():
        obj = pickle.loads(head, buffers=buffers)
    return obj, buffers, _LENGTH.size + frame.nbytes + sum(sizes)


@dataclass
class TaskGrant:
    """One kernel dispatched to a pinned worker."""

    ticket: int
    fn_ref: str
    #: ``(name, array, writable)`` operand triples; arrays are owned
    #: snapshots whose bytes travel out of band (the slab shipment
    #: down).
    operands: list
    kwargs: dict = field(default_factory=dict)
    label: str = ""
    #: Owning task-graph node id / partition (failure attribution);
    #: -1 when the submit came from outside a distributed drain.
    node_id: int = -1
    partition: int = -1
