"""Worker-process loop of :class:`~repro.dist.executor.DistExecutor`.

Each worker owns one end of a duplex pipe and drains
:class:`~repro.dist.protocol.TaskGrant` messages until the
:data:`~repro.dist.protocol.SHUTDOWN` sentinel (or pipe EOF) arrives.
Operand arrays arrive with the grant (message passing, not shared
memory: these workers model machines that share nothing but the
network), read-only operands are locked before the kernel runs, and
writable outputs travel back with the
:class:`~repro.dist.protocol.CompletionAck`.

A kernel exception is caught and shipped back as a formatted traceback
-- the worker survives and keeps serving its partition.  Only process
death (e.g. a kernel calling ``os._exit``) tears the pipe; the
coordinator detects the EOF and fails that partition's tickets cleanly
(:meth:`DistExecutor.wait`).
"""

from __future__ import annotations

import traceback
from time import perf_counter_ns

from repro.dist.protocol import SHUTDOWN, CompletionAck, Heartbeat, \
    TaskGrant, recv_message, send_message


def dist_worker_main(worker_id: int, conn, telemetry: bool = False,
                     heartbeat_s: float = 0.0) -> None:
    """Serve grants on ``conn`` until shutdown or EOF.

    With ``telemetry`` on the worker splits each grant into its
    unpickle / setup / kernel / ack-send sub-phases (the "worker busy
    but kernel idle" attribution hole), stamps its local clock on
    receipt and reply (the coordinator's NTP sample), and ships its
    drained :class:`~repro.obs.phys.TelemetryBuffer` inside the ack.
    ``unpickle`` runs from the grant's header frame arriving to its
    operands being materialised and counts the grant's wire bytes,
    out-of-band buffers included; ``send`` likewise for the ack.  The
    ack's own send time cannot ride the ack being sent, so it is
    buffered and flushes piggybacked on the *next* ack.  With
    ``heartbeat_s > 0`` an idle worker beats on that period so the
    watchdog can tell idle from wedged.  Telemetry off, no buffer is
    ever allocated and acks stay bare.
    """
    from repro.exec.base import resolve_kernel

    buf = None
    if telemetry:
        from repro.obs.phys import TelemetryBuffer, rss_bytes
        buf = TelemetryBuffer(f"w{worker_id}")
    t_recv = 0
    while True:
        try:
            if buf is not None:
                # Idle wait: beat on the heartbeat period until traffic
                # (period 0: just block), then stamp the arrival.
                while not conn.poll(heartbeat_s or None):
                    send_message(conn, Heartbeat(worker=worker_id,
                                                 t_ns=buf.heartbeat(),
                                                 rss=rss_bytes()))
                t_recv = perf_counter_ns()
            msg, _buffers, wire = recv_message(conn)
        except (EOFError, OSError):  # coordinator died / closed our pipe
            break
        if msg == SHUTDOWN:
            break
        assert isinstance(msg, TaskGrant), f"unexpected message {msg!r}"
        u1 = perf_counter_ns()
        phases = None
        if buf is not None:
            buf.record("unpickle", t_recv, u1, msg.ticket, wire)
            phases = {"unpickle": (u1 - t_recv) / 1e9}
        try:
            fn = resolve_kernel(msg.fn_ref)
            args = {}
            outputs = {}
            nbytes = 0
            for name, arr, writable in msg.operands:
                if writable:
                    outputs[name] = arr
                else:
                    arr = arr.view()
                    arr.flags.writeable = False
                args[name] = arr
                nbytes += arr.nbytes
            k0 = perf_counter_ns()
            if buf is not None:
                buf.record("setup", u1, k0, msg.ticket, 0)
                phases["setup"] = (k0 - u1) / 1e9
            fn(**args, **msg.kwargs)
            k1 = perf_counter_ns()
            if buf is not None:
                buf.record("kernel", k0, k1, msg.ticket, nbytes)
                buf.record_rss(msg.ticket)
                phases["kernel"] = (k1 - k0) / 1e9
            ack = CompletionAck(ticket=msg.ticket, worker=worker_id,
                                seconds=(k1 - u1) / 1e9,
                                outputs=outputs, phases=phases)
        except BaseException:
            ack = CompletionAck(ticket=msg.ticket, worker=worker_id,
                                seconds=(perf_counter_ns() - u1) / 1e9,
                                error=traceback.format_exc(),
                                phases=phases)
        if buf is not None:
            ack.telemetry = buf.drain()
            ack.t_recv_ns = t_recv
            ack.t_ack_ns = perf_counter_ns()
        try:
            wire = send_message(conn, ack)
        except OSError:             # coordinator gone
            break
        if buf is not None:
            # The ack's own cost flushes with the *next* ack (residual
            # records at shutdown are simply dropped).
            buf.record("send", ack.t_ack_ns, perf_counter_ns(),
                       msg.ticket, wire)
    try:
        conn.close()
    except OSError:
        pass
