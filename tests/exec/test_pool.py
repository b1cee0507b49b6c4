"""The pool core both process pools share: crash attribution, the
``join_timeout`` hang bound and the telemetry decision at fork, run
against ``shm`` and ``dist`` alike."""

import numpy as np
import pytest

from repro.core.system import System
from repro.dist import DistExecutor, dist_residue
from repro.errors import ConfigError
from repro.exec import ExecError, SharedMemExecutor, fn_ref, shm_residue
from repro.topology.builders import apu_two_level
from tests.exec import kernels

POOLS = {"shm": SharedMemExecutor, "dist": DistExecutor}


def _arr(value=0.0, n=64):
    return np.full(n, value, dtype=np.float32)


@pytest.mark.parametrize("backend", sorted(POOLS))
def test_worker_crash_surfaces_partition_and_node(backend):
    with POOLS[backend](workers=2) as ex:
        if backend == "dist":
            ex.pin(1)
        ex.set_task_context(node_id=7, partition=1)
        ticket = ex.submit(fn_ref(kernels.die), [("x", _arr(), False)],
                           {}, label="compute c3")
        with pytest.raises(ExecError) as err:
            ex.wait(ticket)
        msg = str(err.value)
        (dead,) = ex._dead               # the worker that ran the kernel
        assert f"w{dead}" in msg and "died" in msg
        assert backend == "shm" or dead == 1      # dist: the pinned one
        assert "exit code 13" in msg     # kernels.die's os._exit(13)
        assert "node #7" in msg and "partition 1" in msg
        assert "compute c3" in msg
    assert shm_residue() == [] and dist_residue() == []


@pytest.mark.parametrize("backend", sorted(POOLS))
def test_hung_worker_trips_bounded_join_timeout(backend):
    ex = POOLS[backend](workers=1, join_timeout=0.2)
    try:
        ex.set_task_context(node_id=2, partition=0)
        ticket = ex.submit(fn_ref(kernels.snooze),
                           [("x", _arr(), False)], {"seconds": 60.0})
        with pytest.raises(ExecError,
                           match=r"did not complete.*within 0\.2s"):
            ex.wait(ticket)
    finally:
        ex.close()       # terminates the sleeping straggler
    assert shm_residue() == [] and dist_residue() == []


@pytest.mark.parametrize("backend", sorted(POOLS))
def test_telemetry_cannot_be_turned_on_after_the_workers_started(backend):
    """The workers decide at fork whether to buffer: a System asking a
    pool built without telemetry for it must fail loudly rather than
    report a telemetry-on run with no records."""
    with POOLS[backend](workers=1) as ex:
        with pytest.raises(ConfigError, match=r"make_executor\(.*telemetry"):
            System(apu_two_level(), executor=ex, telemetry=True)
        assert ex.telemetry is None
    with POOLS[backend](workers=1, telemetry=True) as ex:
        sys_ = System(apu_two_level(), executor=ex, telemetry=True)
        sys_.close()
    assert shm_residue() == [] and dist_residue() == []
