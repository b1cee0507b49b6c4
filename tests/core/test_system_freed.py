"""A closed System, and the app that ran on it, are freed by reference
counting alone: nothing the system owns points back at it once closed,
so a finished run's memory goes when its last caller reference does,
not whenever the cyclic garbage collector next runs."""

import gc
import weakref

import pytest

from repro.apps import GemmApp, SortApp
from repro.core.system import System
from repro.memory.backends import FileBackend
from repro.memory.units import KB
from repro.topology.builders import apu_two_level


def _run_and_close(tmp_path, app_name, backend):
    tree = apu_two_level(staging_bytes=96 * KB,
                         storage_backend=FileBackend(str(tmp_path / "root")))
    system = System(tree, executor=backend)
    if app_name == "gemm":
        app = GemmApp(system, m=96, k=96, n=96, seed=2)
    else:
        app = SortApp(system, n=1 << 13, seed=3)
    app.run(system)
    app.result()
    app.release_root_buffers()
    system.close()
    return weakref.ref(system), weakref.ref(app)


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("app_name, backend", [("gemm", "inline"),
                                               ("gemm", "shm"),
                                               ("sort", "inline")])
def test_closed_system_and_app_are_freed(tmp_path, no_cyclic_gc, app_name,
                                         backend):
    system, app = _run_and_close(tmp_path, app_name, backend)
    assert system() is None
    assert app() is None
