"""Wire protocol between the coordinator and dist workers.

One duplex pipe per worker carries these messages:

* :class:`TaskGrant` (coordinator -> worker) -- one kernel dispatch:
  the ``module:qualname`` entry point, its operands (the slab
  shipment), kwargs, and the owning task-graph node / partition for
  failure attribution;
* :class:`CompletionAck` (worker -> coordinator) -- the ticket's
  outcome: measured kernel seconds, the writable output arrays shipped
  back, or a formatted traceback on failure;
* :class:`Heartbeat` (worker -> coordinator) -- idle liveness beat;
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

#: Coordinator -> worker sentinel: drain the pipe and exit.
SHUTDOWN = "shutdown"

#: Buffers smaller than this stay inside the header frame: for a small
#: array one more memcpy is cheaper than one more frame (a pipe write
#: and a pipe read; ~40 us per round trip of a 256-byte operand).
OUT_OF_BAND_MIN = 8192

#: One-line description of the framing (``describe --dist``).
WIRE_FORMAT = ("pickle protocol 5: header frame (head, [sizes]) + one raw "
               f"frame per array buffer of >= {OUT_OF_BAND_MIN} bytes")


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


@dataclass
class CompletionAck:
    """A worker's reply for one grant.

    The telemetry fields stay at their ``None``/``0`` defaults unless
    the worker was started with telemetry on -- the zero-overhead-off
    contract: bare acks never carry a payload.
    """

    ticket: int
    worker: int
    seconds: float
    #: Formatted traceback when the kernel raised; ``None`` on success.
    error: str | None = None
    #: name -> array for every writable operand (the shipment back up).
    outputs: dict[str, np.ndarray] = field(default_factory=dict)
    #: Sub-phase split of ``seconds`` (unpickle/setup/kernel seconds).
    phases: dict | None = None
    #: Drained :class:`~repro.obs.phys.TelemetryBuffer` records
    #: piggybacking home on this ack (worker-clock ns).
    telemetry: list | None = None
    #: Worker ``perf_counter_ns`` when the grant bytes arrived / when
    #: this ack left -- one NTP-style clock sample per round trip.
    t_recv_ns: int = 0
    t_ack_ns: int = 0


@dataclass
class Heartbeat:
    """Worker -> coordinator liveness beat (telemetry mode, idle
    workers only): the watchdog's signal that a silent worker is idle
    rather than wedged."""

    worker: int
    t_ns: int
    rss: int = 0
