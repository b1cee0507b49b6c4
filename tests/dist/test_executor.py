"""DistExecutor failure handling: crashed workers, hung workers, and
pin routing -- the coordinator must attribute and never deadlock.

(The generic backend contract -- ordering, error acks, zero-size
arrays, idempotent close -- runs from tests/exec/test_executors.py,
where ``dist`` is one of the parametrized backends.)
"""

import numpy as np
import pytest

from repro.dist import DistExecutor, dist_residue
from repro.exec import ExecError, fn_ref
from tests.exec import kernels


def _arr(value=0.0, n=64):
    return np.full(n, value, dtype=np.float32)


def test_worker_crash_surfaces_partition_and_node():
    with DistExecutor(workers=2) as ex:
        ex.pin(1)
        ex.set_task_context(node_id=7, partition=1)
        ticket = ex.submit(fn_ref(kernels.die), [("x", _arr(), False)],
                           {}, label="compute c3")
        with pytest.raises(ExecError) as err:
            ex.wait(ticket)
        msg = str(err.value)
        assert "w1" in msg and "died" in msg
        assert "exit code 13" in msg     # kernels.die's os._exit(13)
        assert "node #7" in msg and "partition 1" in msg
        assert "compute c3" in msg
    assert dist_residue() == []


def test_crash_fails_only_the_dead_workers_tickets():
    with DistExecutor(workers=2) as ex:
        ex.pin(0)
        doomed = ex.submit(fn_ref(kernels.die), [("x", _arr(), False)], {})
        ex.pin(1)
        fine = ex.submit(fn_ref(kernels.fill),
                         [("out", _arr(), True)], {"value": 5.0})
        # The healthy worker's result lands despite the sibling crash...
        result = ex.wait(fine)
        np.testing.assert_array_equal(result.outputs["out"], _arr(5.0))
        assert result.worker == "w1"
        ex.release(fine)
        # ...and the doomed ticket fails with attribution, no deadlock.
        with pytest.raises(ExecError, match="w0.*died"):
            ex.wait(doomed)
    assert dist_residue() == []


def test_submit_to_dead_worker_is_rejected():
    with DistExecutor(workers=1) as ex:
        ticket = ex.submit(fn_ref(kernels.die), [("x", _arr(), False)], {})
        with pytest.raises(ExecError):
            ex.wait(ticket)
        with pytest.raises(ExecError, match="dead"):
            ex.submit(fn_ref(kernels.fill), [("out", _arr(), True)],
                      {"value": 1.0})
    assert dist_residue() == []


def test_hung_worker_trips_bounded_join_timeout():
    ex = DistExecutor(workers=1, join_timeout=1.0)
    try:
        ex.set_task_context(node_id=2, partition=0)
        ticket = ex.submit(fn_ref(kernels.snooze),
                           [("x", _arr(), False)], {"seconds": 60.0})
        with pytest.raises(ExecError, match="did not complete.*within.*1"):
            ex.wait(ticket)
    finally:
        ex.close()       # terminates the sleeping straggler
    assert dist_residue() == []


def test_pin_routes_all_tasks_to_one_worker():
    with DistExecutor(workers=4) as ex:
        ex.pin(2)
        tickets = [ex.submit(fn_ref(kernels.fill),
                             [("out", _arr(), True)], {"value": float(i)})
                   for i in range(5)]
        workers = {ex.wait(t).worker for t in tickets}
        assert workers == {"w2"}
        ex.pin(None)
        spread = {ex.wait(ex.submit(fn_ref(kernels.fill),
                                    [("out", _arr(), True)],
                                    {"value": 0.0})).worker
                  for _ in range(8)}
        assert len(spread) > 1, "unpinned submits should round-robin"
    assert dist_residue() == []


def test_kernel_exception_does_not_kill_the_worker():
    with DistExecutor(workers=1) as ex:
        bad = ex.submit(fn_ref(kernels.boom), [("x", _arr(), False)], {})
        with pytest.raises(ExecError, match="exploded"):
            ex.wait(bad)
        good = ex.submit(fn_ref(kernels.fill), [("out", _arr(), True)],
                         {"value": 4.0})
        np.testing.assert_array_equal(ex.wait(good).outputs["out"],
                                      _arr(4.0))
    assert dist_residue() == []
