"""The dist data plane: message framing, the receiver threads' eager
ack drain, pooled snapshot staging, and what is left behind after
``close()`` or a crash."""

import multiprocessing as mp
import os
import threading
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.dist import DistExecutor, dist_residue
from repro.dist.protocol import (OUT_OF_BAND_MIN, SHUTDOWN, CompletionAck,
                                 TaskGrant, recv_message, send_message)
from repro.exec import ExecError, fn_ref
from tests.exec import kernels


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
