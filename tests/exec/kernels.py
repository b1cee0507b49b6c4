"""Module-level test kernels: picklable entry points the executor
tests dispatch through every backend (worker processes resolve them by
``module:qualname`` reference, so they cannot live inside test
functions)."""

import numpy as np


def fill(out, *, value):
    """Overwrite ``out`` with a constant."""
    out[:] = value


def double(data, out):
    """``out = 2 * data`` (integers wrap in the dtype)."""
    np.multiply(data, 2, out=out)


def axpy(x, y, *, alpha):
    """``y += alpha * x`` -- one read-only and one inout binding."""
    y += alpha * x


def scale_offset(block, *, factor):
    """In-place scale; used for offset-window bindings."""
    np.multiply(block, factor, out=block)


def boom(x):
    """A kernel that always fails."""
    raise RuntimeError("kernel exploded")


def die(x):
    """Hard-kill the worker process mid-kernel -- no exception, no ack,
    just a torn pipe (the dist crash-handling tests)."""
    import os
    os._exit(13)


def snooze(x, *, seconds):
    """Sleep through the coordinator's join timeout (hung-worker
    tests)."""
    import time
    time.sleep(seconds)


def touch(x, *, path):
    """Create ``path`` -- proof, visible from outside, that the worker
    got this far (the dist back-pressure test)."""
    open(path, "w").close()


def differ(x, y, out):
    """``out[0]`` = how many elements of ``x`` and ``y`` differ."""
    out[0] = int((x != y).sum())


def count_dead_maps(out, *, prefix):
    """``out[0]`` = how many of this process's memory mappings are of
    unlinked ``/dev/shm`` files named ``prefix``*."""
    with open("/proc/self/maps") as maps:
        out[0] = sum(1 for line in maps
                     if f"/{prefix}" in line and line.rstrip().endswith(
                         "(deleted)"))


def slow_axpy(x, y, *, alpha, seconds):
    """:func:`axpy` after a nap: slow enough that the coordinator
    outruns the workers (the in-flight budget tests)."""
    import time
    time.sleep(seconds)
    y += alpha * x
