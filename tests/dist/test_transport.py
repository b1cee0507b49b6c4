"""The dist data plane: message framing, the receiver threads' eager
ack drain, pooled snapshot staging, the in-flight budget, and what is
left behind after ``close()`` or a crash."""

import hashlib
import multiprocessing as mp
import os
import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.dist import DistExecutor, dist_residue
from repro.dist import executor as dist_executor
from repro.dist import protocol
from repro.dist.protocol import (OUT_OF_BAND_MIN, SHUTDOWN, CompletionAck,
                                 TaskGrant, encode, recv_message,
                                 send_message)
from repro.exec import ExecError, fn_ref
from repro.exec import pool as core
from tests.exec import kernels

MIB = 1024 * 1024


# -- framing -----------------------------------------------------------------

def _round_trip(obj):
    """``obj`` through a real pipe; the sender runs on a thread of its
    own so a payload larger than the pipe buffer cannot deadlock."""
    a, b = mp.Pipe(duplex=True)
    try:
        sent = []
        t = threading.Thread(target=lambda: sent.append(send_message(a, obj)))
        t.start()
        got, buffers, wire = recv_message(b)
        t.join()
        assert sent == [wire]
        return got, buffers
    finally:
        a.close()
        b.close()


def _same_array(got, want):
    """Exact in dtype, shape and element bytes; a contiguous array
    keeps its memory order (C or Fortran), a non-contiguous one
    arrives packed in C order."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if want.flags.c_contiguous or want.flags.f_contiguous:
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous
    else:
        assert got.flags.c_contiguous


_DTYPES = st.sampled_from(["u1", "i2", "i4", "f4", "f8", "c16", "?",
                           "S3", "M8[ns]"]).map(np.dtype)
_LAYOUTS = st.sampled_from(["c", "f", "strided", "reversed", "readonly"])


@st.composite
def _arrays(draw):
    """Zero-size up to ~200 KB, so both sides of ``OUT_OF_BAND_MIN``."""
    dtype = draw(_DTYPES)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                  max_side=24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arr = np.frombuffer(rng.bytes(int(np.prod(shape)) * dtype.itemsize),
                        dtype=dtype).reshape(shape).copy()
    layout = draw(_LAYOUTS)
    if layout == "f":
        arr = np.asfortranarray(arr)
    elif layout == "strided" and arr.ndim:
        arr = arr[..., ::2]
    elif layout == "reversed" and arr.ndim:
        arr = arr[::-1]
    elif layout == "readonly":
        arr.flags.writeable = False
    return arr


@settings(max_examples=150, deadline=None)
@given(arrays=st.lists(_arrays(), max_size=4),
       extra=st.one_of(st.none(), st.integers(), st.text(max_size=8)))
def test_messages_round_trip_exactly(arrays, extra):
    ack = CompletionAck(ticket=3, worker=1, seconds=0.25, error=extra,
                        outputs={f"a{i}": a for i, a in enumerate(arrays)})
    got, _buffers = _round_trip(ack)
    assert (got.ticket, got.worker, got.seconds, got.error) == \
        (3, 1, 0.25, extra)
    assert list(got.outputs) == list(ack.outputs)
    for name, want in ack.outputs.items():
        _same_array(got.outputs[name], want)


def test_array_free_messages_round_trip():
    for msg in (SHUTDOWN, None, TaskGrant(ticket=2, fn_ref="m:f",
                                          operands=[], kwargs={"k": 7}),
                {"k": [1, 2.5, "x"]}):
        got, buffers = _round_trip(msg)
        assert got == msg and buffers == []


def test_out_of_band_array_lands_in_the_callers_buffer():
    a, b = mp.Pipe(duplex=True)
    taken = []

    def take(nbytes):
        taken.append(np.empty(nbytes, dtype=np.uint8))
        return taken[-1]
    try:
        big = np.arange(1 << 18, dtype=np.float32)       # 1 MiB
        t = threading.Thread(target=send_message, args=(a, {"x": big}))
        t.start()
        got, buffers, wire = recv_message(b, take)
        t.join()
        assert [id(x) for x in buffers] == [id(x) for x in taken]
        assert np.shares_memory(got["x"], taken[0])
        np.testing.assert_array_equal(got["x"], big)
        assert wire > big.nbytes
        # A small array rides in the header frame instead.
        small = np.arange(OUT_OF_BAND_MIN // 8 - 1, dtype=np.float64)
        send_message(a, small)
        got, buffers, wire = recv_message(b, take)
        assert buffers == [] and len(taken) == 1
        np.testing.assert_array_equal(got, small)
    finally:
        a.close()
        b.close()


def _duplex_message(seed):
    """Three out-of-band arrays of >= 1 MiB (C and Fortran order) and
    two in-band ones."""
    rng = np.random.default_rng(seed)
    return {
        "c": rng.random((512, 300)),
        "f": np.asfortranarray(rng.integers(0, 2 ** 31, (400, 700),
                                            dtype=np.int32)),
        "u": rng.integers(0, 256, 3 * MIB, dtype=np.uint8),
        "small": rng.random(16),
        "small_f": np.asfortranarray(rng.random((4, 6))),
    }


def _fingerprint(msg):
    return {name: (a.dtype.str, a.shape, a.flags.c_contiguous,
                   a.flags.f_contiguous, hashlib.sha256(a.tobytes()).digest())
            for name, a in msg.items()}


def _duplex_peer(conn, seed):
    """Send one large message while reading the other side's; then
    report what arrived and the wire bytes each way."""
    sent = []
    t = threading.Thread(target=lambda: sent.append(
        send_message(conn, _duplex_message(seed))))
    t.start()
    got, _buffers, wire = recv_message(conn)
    t.join()
    send_message(conn, (_fingerprint(got), sent[0], wire))
    conn.close()


def test_large_messages_cross_a_forked_peer_in_both_directions_at_once():
    ctx = core.pool_context()
    a, b = ctx.Pipe(duplex=True)
    peer = ctx.Process(target=_duplex_peer, args=(b, 2), daemon=True)
    peer.start()
    b.close()
    try:
        mine = _duplex_message(1)
        sent = []
        t = threading.Thread(target=lambda: sent.append(send_message(a,
                                                                     mine)))
        t.start()
        got, buffers, wire = recv_message(a)
        t.join(timeout=30.0)
        assert not t.is_alive()
        assert sorted(buf.nbytes for buf in buffers) == [
            1_120_000, 1_228_800, 3 * MIB]
        for name, want in _duplex_message(2).items():
            _same_array(got[name], want)
        (seen, peer_sent, peer_got), _buffers, _wire = recv_message(a)
        assert seen == _fingerprint(mine)
        assert (peer_sent, peer_got) == (wire, sent[0])
    finally:
        a.close()
        peer.join(timeout=10.0)
    assert peer.exitcode == 0


def test_a_zero_length_out_of_band_buffer(monkeypatch):
    monkeypatch.setattr(protocol, "OUT_OF_BAND_MIN", 0)
    msg = {"empty": np.zeros((0, 3)), "x": np.arange(5.0),
           "none_f": np.asfortranarray(np.zeros((2, 0), np.int16))}
    got, buffers = _round_trip(msg)
    assert sorted(buf.nbytes for buf in buffers) == [0, 0, 40]
    for name, want in msg.items():
        _same_array(got[name], want)


def _wire(obj):
    """``obj``'s message as the bytes on the wire, and the offset of
    each out-of-band buffer in them."""
    iovecs, wire = encode(obj)
    data = b"".join(bytes(v) for v in iovecs)
    assert len(data) == wire
    starts = [len(iovecs[0]) + len(iovecs[1])]
    for raw in iovecs[2:]:
        starts.append(starts[-1] + raw.nbytes)
    return data, starts[:-1]


def _recv_from(data):
    """``recv_message`` on a socket whose peer wrote ``data`` and
    closed; returns the ``take`` buffers, raises what it raised."""
    a, b = socket.socketpair()
    taken = []

    def take(nbytes):
        taken.append(np.zeros(nbytes, np.uint8))
        return taken[-1]
    try:
        a.sendall(data)
        a.close()
        recv_message(b, take)
    finally:
        a.close()
        b.close()
    return taken


@pytest.mark.parametrize("where", ["between messages", "after the length",
                                   "inside the frame", "inside buffer 0",
                                   "inside buffer 2"])
def test_a_peer_closing_mid_message_is_end_of_file(where):
    arrays = [np.full(4096, i + 1.0) for i in range(3)]    # 32 KiB each
    data, starts = _wire(arrays)
    cut = {"between messages": 0, "after the length": 8,
           "inside the frame": (8 + starts[0]) // 2,
           "inside buffer 0": starts[0] + 100,
           "inside buffer 2": starts[2] + 32767}[where]
    with pytest.raises(EOFError):
        _recv_from(data[:cut])
    assert len(_recv_from(data)) == 3       # the whole message reads


def _framed(frame):
    return protocol._LENGTH.pack(protocol._MAGIC, len(frame)) + frame


@pytest.mark.parametrize("data", [
    _framed(b"\x80\x05not a pickle!!"),
    struct.pack("!Q", 2 ** 62),                 # no magic, no message
    _framed(pickle.dumps(42, protocol=5)[:5]),  # a truncated pickle
    _framed(pickle.dumps(42, protocol=5)),      # not (head, sizes)
    _framed(pickle.dumps((b"head", [-1]), protocol=5)),
], ids=["junk", "huge length", "truncated pickle", "not (head, sizes)",
        "negative size"])
def test_bytes_that_are_not_a_message_raise_a_typed_error(data):
    with pytest.raises(pickle.UnpicklingError, match="not a dist message"):
        _recv_from(data)


def test_a_stream_that_lost_a_byte_fails_at_the_next_message():
    """One byte dropped inside a message's last buffer: the receiver
    reads that message one byte long into the next, whose word then
    starts one byte late.  Unchecked, its bytes read as a plausible
    frame length and the receive waits for bytes that never come."""
    arrays = [np.full(4096, i + 1.0) for i in range(3)]
    first, starts = _wire(arrays)
    cut = starts[2] + 100
    second, _starts = _wire({"ok": np.arange(4.0)})
    a, b = socket.socketpair()
    outcome = []

    def receive():
        try:
            recv_message(b)
            recv_message(b)
        except Exception as exc:
            outcome.append(exc)
    t = threading.Thread(target=receive, daemon=True)
    try:
        a.sendall(first[:cut] + first[cut + 1:] + second)
        # End of stream after the bytes: a receive that took a bad
        # length for a frame's ends in EOFError, not in waiting.
        a.shutdown(socket.SHUT_WR)
        t.start()
        t.join(60.0)
        assert not t.is_alive(), "the receive outlived the stream"
    finally:
        a.close()
        b.close()
    assert len(outcome) == 1
    assert isinstance(outcome[0], pickle.UnpicklingError)
    assert "not a dist message: bad magic" in str(outcome[0])


# -- eager ack drain ---------------------------------------------------------

def test_worker_never_waits_for_the_coordinator_to_take_an_ack(tmp_path):
    """A 1 MiB ack overflows the pipe buffer.  Nobody calls ``wait``,
    yet the worker must get past it to the next grant."""
    marker = tmp_path / "second-kernel-ran"
    with DistExecutor(workers=1) as ex:
        ex.pin(0)
        first = ex.submit(fn_ref(kernels.fill),
                          [("out", np.zeros(1 << 18, np.float32), True)],
                          {"value": 1.0})
        second = ex.submit(fn_ref(kernels.touch),
                           [("x", np.zeros(4, np.float32), False)],
                           {"path": str(marker)})
        deadline = time.monotonic() + 10.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert marker.exists(), "worker stuck sending its first ack"
        out = ex.wait(first).outputs["out"]
        assert out.shape == (1 << 18,) and (out == 1.0).all()
        ex.release(first)
        ex.wait(second)
    assert dist_residue() == []


# -- staging -----------------------------------------------------------------

def _eventually(predicate, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def test_staged_snapshots_and_ack_buffers_recycle_through_the_pool():
    with DistExecutor(workers=1) as ex:
        pool = ex._pool
        buf = ex.stage(1 << 16)
        snap = buf.view(np.float32).reshape(128, 128)
        snap[:] = 2.0
        mine = np.full((128, 128), 3.0, dtype=np.float32)  # not staged
        ticket = ex.submit(fn_ref(kernels.axpy),
                           [("x", mine, False), ("y", snap, True)],
                           {"alpha": 2.0})
        result = ex.wait(ticket)
        assert (result.outputs["y"] == 8.0).all()
        # The sender thread handed the staged buffer back once the
        # grant was on the wire (the ack may already have landed in
        # it); the ack's buffer returns at release; the caller's own
        # array never enters the pool.
        assert _eventually(lambda: pool.retired >= 1)
        ex.release(ticket)
        assert pool.retired == 2 and pool.held_bytes >= 1 << 16
        pooled = [b for bucket in pool._free.values() for b in bucket]
        assert not any(np.shares_memory(mine, b) for b in pooled)
        reuses = pool.reuses
        assert any(ex.stage(1 << 16) is b for b in pooled)
        assert pool.reuses == reuses + 1
    assert dist_residue() == []


# -- the in-flight budget ----------------------------------------------------

def _staged(ex, values):
    """``values`` snapshotted the way ``System`` does it."""
    arr = ex.stage(values.nbytes).view(values.dtype).reshape(values.shape)
    arr[...] = values
    return arr


def test_staging_holds_at_most_the_budget_plus_one_ticket(monkeypatch):
    monkeypatch.setattr(core, "SEGMENT_BUDGET_BYTES", MIB)
    rng = np.random.default_rng(38)
    xs = [rng.random(16 * 1024) for _ in range(20)]         # 128 KiB each
    ys = [rng.random(16 * 1024) for _ in range(20)]
    ticket_bytes = xs[0].nbytes + ys[0].nbytes
    peak = 0
    with DistExecutor(workers=2) as ex:
        tickets = []
        for x, y in zip(xs, ys):
            ops = [("x", _staged(ex, x), False)]
            peak = max(peak, ex._held())
            ops.append(("y", _staged(ex, y), True))
            peak = max(peak, ex._held())
            tickets.append(ex.submit(fn_ref(kernels.slow_axpy), ops,
                                     {"alpha": 3.0, "seconds": 0.01}))
            peak = max(peak, ex._held())
        for ticket, x, y in zip(tickets, xs, ys):
            got = ex.wait(ticket).outputs["y"]
            assert got.tobytes() == (y + 3.0 * x).tobytes()
            ex.release(ticket)
        assert peak <= MIB + ticket_bytes
        assert ex.stats.budget_waits > 0
        assert ex.stats.budget_wait_seconds > 0
        assert ex._held() == 0
    assert dist_residue() == []


def test_a_worker_killed_during_a_budget_wait_fails_it_by_name(monkeypatch):
    monkeypatch.setattr(core, "SEGMENT_BUDGET_BYTES", MIB)
    ex = DistExecutor(workers=2, join_timeout=10.0)
    try:
        ex.pin(1)
        ticket = ex.submit(fn_ref(kernels.snooze), [
            ("x", _staged(ex, np.zeros(MIB, np.uint8)), False)],
            {"seconds": 30.0})
        killer = threading.Timer(0.2, ex._procs[1].kill)
        killer.start()
        t0 = time.monotonic()
        with pytest.raises(ExecError, match="died while staging.*w1 exit"):
            ex.stage(MIB // 2)
        assert time.monotonic() - t0 < ex.join_timeout
        killer.join()
        with pytest.raises(ExecError, match="w1 died"):
            ex.wait(ticket)
        assert ex.stats.budget_waits == 1
    finally:
        ex.close()
    assert dist_residue() == []


# -- failures on the wire ----------------------------------------------------

def test_an_unpicklable_grant_fails_its_submit_and_spares_the_worker():
    with DistExecutor(workers=1, join_timeout=10.0) as ex:
        t0 = time.monotonic()
        with pytest.raises(ExecError, match=r"\(bad kwargs\).*TypeError: "
                                            r"cannot pickle '_thread.lock'"):
            ex.submit(fn_ref(kernels.fill),
                      [("out", np.zeros(8, np.float32), True)],
                      {"value": 1.0, "bad": threading.Lock()},
                      label="bad kwargs")
        assert time.monotonic() - t0 < 1.0
        rng = np.random.default_rng(39)
        x, y = rng.random(1 << 16), rng.random(1 << 16)
        ticket = ex.submit(fn_ref(kernels.axpy),
                           [("x", x, False), ("y", y.copy(), True)],
                           {"alpha": 2.0}, label="good")
        got = ex.wait(ticket).outputs["y"]
        assert got.tobytes() == (y + 2.0 * x).tobytes()
        ex.release(ticket)
    assert dist_residue() == []


def test_an_oversized_header_frame_fails_its_submit(monkeypatch):
    monkeypatch.setattr(protocol, "FRAME_MAX", 4096)
    with DistExecutor(workers=1, join_timeout=10.0) as ex:
        with pytest.raises(ExecError, match=r"\(big kwargs\).*ValueError: "
                                            r"header frame of \d+ bytes "
                                            r"exceeds the 4096-byte limit"):
            ex.submit(fn_ref(kernels.fill),
                      [("out", np.zeros(8, np.float32), True)],
                      {"value": 1.0, "pad": b"x" * 8192},
                      label="big kwargs")
    assert dist_residue() == []


def test_a_corrupt_reply_ends_its_worker_with_the_cause(monkeypatch):
    def corrupt(conn, take):
        recv_message(conn, take)
        raise pickle.UnpicklingError("not a dist message: junk")
    monkeypatch.setattr(dist_executor, "recv_message", corrupt)
    ex = DistExecutor(workers=2, join_timeout=60.0)
    try:
        ex.pin(1)
        ticket = ex.submit(fn_ref(kernels.fill),
                           [("out", np.zeros(8, np.float32), True)],
                           {"value": 1.0})
        t0 = time.monotonic()
        with pytest.raises(ExecError, match=r"w1 died \(exit code -9; "
                                            r"UnpicklingError: not a dist"):
            ex.wait(ticket)
        assert time.monotonic() - t0 < 5.0
        with pytest.raises(ExecError, match="w1 is dead"):
            ex.submit(fn_ref(kernels.fill),
                      [("out", np.zeros(8, np.float32), True)],
                      {"value": 1.0})
    finally:
        ex.close()
    assert dist_residue() == []


# -- hygiene -----------------------------------------------------------------

def _dist_threads():
    return sorted(t.name for t in threading.enumerate()
                  if t.name.startswith("repro-dist-"))


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_close_leaves_no_thread_process_or_pipe_behind():
    fds = _open_fds()
    ex = DistExecutor(workers=2)
    assert _dist_threads() == ["repro-dist-recv-0", "repro-dist-recv-1",
                               "repro-dist-send-0", "repro-dist-send-1"]
    assert any(r.startswith("repro-dist-pipe-") for r in dist_residue())
    ex.wait(ex.submit(fn_ref(kernels.fill),
                      [("out", np.zeros(8, np.float32), True)],
                      {"value": 1.0}))
    ex.close()
    assert dist_residue() == []
    assert _dist_threads() == []
    assert not mp.active_children()
    assert _open_fds() == fds


def test_crash_leaves_no_thread_process_or_pipe_behind():
    fds = _open_fds()
    ex = DistExecutor(workers=2)
    try:
        ex.pin(1)
        ticket = ex.submit(fn_ref(kernels.die),
                           [("x", np.zeros(8, np.float32), False)], {})
        try:
            ex.wait(ticket)
        except ExecError:
            pass
        else:
            raise AssertionError("crash went unnoticed")
    finally:
        ex.close()
    assert dist_residue() == []
    assert _dist_threads() == []
    assert not mp.active_children()
    assert _open_fds() == fds
