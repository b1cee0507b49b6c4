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

Every message, in both directions, travels through
:func:`send_message` / :func:`recv_message`: a small *header frame*
``pickle((head, [sizes]))`` -- ``head`` is the protocol-5 pickle of the
message with its array payloads of :data:`OUT_OF_BAND_MIN` bytes and
more taken out of band -- followed by one frame per out-of-band buffer,
written straight from the array's memory and read straight into a
preallocated buffer the unpickled array then wraps.  A large contiguous
array therefore costs one pipe write and one pipe read, with no
``tobytes``/concatenate on the way out and no copy in ``loads`` on the
way in; small ones ride in the header frame.

Determinism does not come from the wire: acks arrive in any order and
are stashed; the :class:`~repro.exec.ledger.PendingLedger` merges
results in submission order, exactly as for the shared-memory pool.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from repro.exec.pool import CompletionAck  # noqa: F401  (re-exported)

#: Coordinator -> worker sentinel: drain the pipe and exit.
SHUTDOWN = "shutdown"

#: Buffers smaller than this stay inside the header frame: for a small
#: array one more memcpy is cheaper than one more frame (a pipe write
#: and a pipe read; ~40 us per round trip of a 256-byte operand).
OUT_OF_BAND_MIN = 8192


def _fresh(nbytes: int) -> np.ndarray:
    return np.empty(nbytes, dtype=np.uint8)


def send_message(conn, obj) -> int:
    """Write ``obj`` to ``conn``; returns the bytes put on the wire."""
    raws: list[memoryview] = []

    def out_of_band(buf: pickle.PickleBuffer):
        raw = buf.raw()
        if raw.nbytes < OUT_OF_BAND_MIN:
            return True             # pickle it in band
        raws.append(raw)

    head = pickle.dumps(obj, protocol=5, buffer_callback=out_of_band)
    frame = pickle.dumps((head, [r.nbytes for r in raws]), protocol=5)
    conn.send_bytes(frame)
    wire = len(frame)
    for raw in raws:
        conn.send_bytes(raw)
        wire += raw.nbytes
    return wire


def recv_message(conn, take=_fresh) -> tuple:
    """Read one message: ``(obj, buffers, wire_bytes)``.

    ``take(nbytes)`` supplies the writable uint8 array each out-of-band
    buffer lands in (a pool, on the coordinator); the arrays inside
    ``obj`` are views of those ``buffers``, so whoever recycles them
    must be done with ``obj`` first.  Raises :class:`EOFError` /
    :class:`OSError` when the peer is gone.
    """
    frame = conn.recv_bytes()
    head, sizes = pickle.loads(frame)
    buffers = [take(n) for n in sizes]
    for buf in buffers:
        conn.recv_bytes_into(buf)
    return (pickle.loads(head, buffers=buffers), buffers,
            len(frame) + sum(sizes))


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
