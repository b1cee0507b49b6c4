"""Worker-process loop of :class:`~repro.dist.executor.DistExecutor`.

Each worker owns one end of a duplex pipe and drains
:class:`~repro.dist.protocol.TaskGrant` messages until the
:data:`~repro.dist.protocol.SHUTDOWN` sentinel (or pipe EOF) arrives.
Operand arrays arrive with the grant, read straight into the arrays the
kernel gets, and root file windows arrive as
:class:`~repro.exec.pool.FileWindow` descriptors the worker reads on a
descriptor of its own (message passing, not shared memory: these
workers model machines that share the network plus read-only root
storage); the pool core's kernel body
(:func:`~repro.exec.pool.run_kernel`) runs the kernel over them,
and writable outputs travel back with the
:class:`~repro.exec.pool.CompletionAck`.  A kernel exception travels
back as a formatted traceback; the worker survives.
"""

from __future__ import annotations

from time import perf_counter_ns

from repro.dist.protocol import SHUTDOWN, CompletionAck, TaskGrant, \
    recv_message, send_message
from repro.exec.pool import run_kernel


def dist_worker_main(worker_id: int, conn, telemetry: bool = False) -> None:
    """Serve grants on ``conn`` until shutdown or EOF.

    With ``telemetry`` on the worker splits each grant into its
    unpickle / setup / kernel / ack-send sub-phases (the "worker busy
    but kernel idle" attribution hole) and ships its drained
    :class:`~repro.obs.phys.TelemetryBuffer` inside the ack.
    ``unpickle`` runs from the grant's first byte arriving to its
    operands being materialised -- the pipe reads included -- and
    counts the grant's wire bytes (length prefix, header frame and
    out-of-band buffers); ``send`` likewise for the ack.  The
    ack's own send time cannot ride the ack being sent, so it is
    buffered and flushes piggybacked on the *next* ack.  Telemetry off,
    no buffer is ever allocated and acks stay bare.
    """
    buf = None
    if telemetry:
        from repro.obs.phys import TelemetryBuffer
        buf = TelemetryBuffer(f"w{worker_id}")
    t_recv = 0
    while True:
        try:
            if buf is not None:
                conn.poll(None)     # stamp the arrival, not the idle wait
                t_recv = perf_counter_ns()
            msg, _buffers, wire = recv_message(conn)
        except (EOFError, OSError):  # coordinator died / closed our pipe
            break
        if msg == SHUTDOWN:
            break
        assert isinstance(msg, TaskGrant), f"unexpected message {msg!r}"
        u1 = perf_counter_ns()
        if buf is not None:
            buf.record("unpickle", t_recv, u1, msg.ticket, wire)
        seconds, error, phases = run_kernel(msg.fn_ref, msg.operands,
                                            msg.kwargs, msg.ticket, buf, u1)
        if phases is not None:
            phases["unpickle"] = (u1 - t_recv) / 1e9
        ack = CompletionAck(
            ticket=msg.ticket, worker=worker_id, seconds=seconds,
            error=error, phases=phases,
            outputs={} if error else {name: arr for name, arr, writable
                                      in msg.operands if writable},
            telemetry=buf.drain() if buf is not None else None)
        s0 = perf_counter_ns()
        try:
            wire = send_message(conn, ack)
        except OSError:             # coordinator gone
            break
        if buf is not None:
            # The ack's own cost flushes with the *next* ack (residual
            # records at shutdown are simply dropped).
            buf.record("send", s0, perf_counter_ns(), msg.ticket, wire)
    try:
        conn.close()
    except OSError:
        pass
