"""The executor contract: lifecycle on every backend, and the worker
pools' asynchronous submit/wait/release round trips, error propagation
and shared-memory hygiene, exercised uniformly.  The inline backend
has no submit: the System runs its kernels in place."""

import numpy as np
import pytest

from repro.exec import (EXEC_BACKENDS, Binding, ExecError, fn_ref,
                        kernel_spec, make_executor, shm_residue)
from tests.exec import kernels

AXPY = fn_ref(kernels.axpy)
FILL = fn_ref(kernels.fill)
BOOM = fn_ref(kernels.boom)


POOL_BACKENDS = [b for b in EXEC_BACKENDS if b != "inline"]


@pytest.fixture(params=POOL_BACKENDS)
def executor(request):
    ex = make_executor(request.param, workers=2)
    yield ex
    ex.close()


def test_submit_wait_release_round_trip(executor):
    x = np.arange(64, dtype=np.float32)
    y = np.ones(64, dtype=np.float32)
    ticket = executor.submit(AXPY, [("x", x, False), ("y", y, True)],
                             {"alpha": 2.0})
    result = executor.wait(ticket)
    np.testing.assert_array_equal(
        result.outputs["y"], 1.0 + 2.0 * np.arange(64, dtype=np.float32))
    assert "x" not in result.outputs          # read-only bindings stay out
    executor.release(ticket)
    assert executor.stats.submitted == 1
    assert executor.stats.completed == 1
    assert sum(executor.stats.worker_tasks.values()) == 1


def test_many_tasks_wait_in_submission_order(executor):
    arrays = [np.zeros(16, dtype=np.float32) for _ in range(8)]
    tickets = [executor.submit(FILL, [("out", arr, True)],
                               {"value": float(i)})
               for i, arr in enumerate(arrays)]
    for i, ticket in enumerate(tickets):
        result = executor.wait(ticket)
        np.testing.assert_array_equal(result.outputs["out"],
                                      np.full(16, float(i), np.float32))
        executor.release(ticket)
    assert executor.stats.completed == 8


def test_kernel_error_propagates(executor):
    x = np.zeros(4, dtype=np.float32)
    ticket = executor.submit(BOOM, [("x", x, False)], {})
    with pytest.raises(ExecError, match="exploded"):
        executor.wait(ticket)


def test_pool_survives_a_failed_kernel(executor):
    x = np.zeros(4, dtype=np.float32)
    ticket = executor.submit(BOOM, [("x", x, False)], {})
    with pytest.raises(ExecError):
        executor.wait(ticket)
    out = np.zeros(8, dtype=np.float32)
    ticket = executor.submit(FILL, [("out", out, True)], {"value": 5.0})
    result = executor.wait(ticket)
    np.testing.assert_array_equal(result.outputs["out"],
                                  np.full(8, 5.0, np.float32))
    executor.release(ticket)


def test_wait_on_unknown_ticket_raises(executor):
    with pytest.raises(ExecError):
        executor.wait(999)


def test_closed_executor_rejects_submit(executor):
    executor.close()
    assert executor.closed
    with pytest.raises(ExecError):
        executor.submit(FILL, [("out", np.zeros(4, np.float32), True)],
                        {"value": 1.0})
    executor.close()    # idempotent


def test_inline_executor_takes_no_submits():
    """Inline kernels run in place inside ``System.launch``: the
    submit/wait round trip is the pools' contract alone."""
    with make_executor("inline") as ex:
        assert not ex.asynchronous
        with pytest.raises(ExecError, match="takes no submits"):
            ex.submit(FILL, [("out", np.zeros(4, np.float32), True)],
                      {"value": 1.0})
        with pytest.raises(ExecError, match="unknown ticket"):
            ex.wait(1)


@pytest.mark.parametrize("backend", EXEC_BACKENDS)
def test_context_manager_closes(backend):
    with make_executor(backend, workers=1) as ex:
        assert not ex.closed
        if ex.asynchronous:
            out = np.zeros(4, dtype=np.float32)
            ticket = ex.submit(FILL, [("out", out, True)], {"value": 3.0})
            np.testing.assert_array_equal(ex.wait(ticket).outputs["out"],
                                          np.full(4, 3.0, np.float32))
            ex.release(ticket)
    assert ex.closed


def test_zero_size_arrays(executor):
    out = np.empty(0, dtype=np.float32)
    ticket = executor.submit(FILL, [("out", out, True)], {"value": 1.0})
    result = executor.wait(ticket)
    assert result.outputs["out"].size == 0
    executor.release(ticket)


def test_shm_leaves_no_residue_after_close():
    ex = make_executor("shm", workers=2)
    arrays = [np.zeros(1024, dtype=np.float32) for _ in range(4)]
    tickets = [ex.submit(FILL, [("out", arr, True)], {"value": float(i)})
               for i, arr in enumerate(arrays)]
    for ticket in tickets:
        ex.wait(ticket)
        ex.release(ticket)
    ex.close()
    assert shm_residue() == []


def test_make_executor_rejects_unknown_backend():
    with pytest.raises(ExecError):
        make_executor("cuda")


# -- kernel_spec / fn_ref validation -----------------------------------------

class _FakeHandle:
    nbytes = 64


def test_kernel_spec_rejects_duplicate_binding_names():
    h = _FakeHandle()
    with pytest.raises(ExecError):
        kernel_spec(kernels.fill,
                    Binding.update("out", h, np.float32, (4,)),
                    Binding.read("out", h, np.float32, (4,)))


def test_kernel_spec_rejects_kwargs_shadowing_bindings():
    h = _FakeHandle()
    with pytest.raises(ExecError):
        kernel_spec(kernels.fill,
                    Binding.update("out", h, np.float32, (4,)),
                    out=1.0)


def test_fn_ref_rejects_closures_and_lambdas():
    with pytest.raises(ExecError):
        fn_ref(lambda x: x)

    def nested(x):
        return x

    with pytest.raises(ExecError):
        fn_ref(nested)


def test_fn_ref_round_trips_module_functions():
    from repro.exec import resolve_kernel
    ref = fn_ref(kernels.axpy)
    assert resolve_kernel(ref) is kernels.axpy


def test_binding_nbytes():
    h = _FakeHandle()
    assert Binding.read("a", h, np.float32, (4, 4)).nbytes == 64
    assert Binding.read("a", h, np.uint8, count=10).nbytes == 10
    assert Binding.read("a", h, np.uint8, offset=16).nbytes == 48
