"""Inputs born on storage: host memory is bounded by the tree, not the
input.

Each out-of-core app writes its seeded input into its file-backed root
buffers band by band and keeps only root handles, so at fixed staging S
the traced host peak stays flat when the input doubles: a few MiB while
the app is built, and a small multiple of S while it runs.  (Results
are read after ``run()``; ``result()`` returns a whole array by
design.)
"""

import tracemalloc

import pytest

from repro.apps import GemmApp, HotspotApp, SortApp
from repro.core.system import System
from repro.memory.backends import FileBackend
from repro.memory.units import MB
from repro.topology.builders import apu_two_level

MiB = 1 << 20

#: Builders at input size ``n``; sizes and staging keep each case fast
#: (GEMM's column-strided B tiles make small staging slow on files).
BUILD = {
    "gemm": lambda s, n: GemmApp(s, m=n, k=n, n=n, seed=3),
    "hotspot": lambda s, n: HotspotApp(s, n=n, iterations=4,
                                       steps_per_pass=2, seed=3),
    "sort": lambda s, n: SortApp(s, n=n, seed=3),
}


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("app_name, size, staging", [
    ("gemm", 512, 4 * MiB), ("hotspot", 512, MiB), ("sort", 1_000_000, MiB)])
def test_traced_peak_is_flat_in_the_input(tmp_path, app_name, size, staging,
                                          scale):
    n = size * scale
    tree = apu_two_level(storage_capacity=256 * MB, staging_bytes=staging,
                         storage_backend=FileBackend(str(tmp_path / "root")))
    system = System(tree)
    app = None
    tracemalloc.start()
    try:
        app = BUILD[app_name](system, n)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        app.run(system)
        _, run_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if app is not None:
            app.release_root_buffers()
        system.close()
    assert build_peak <= 8 * MiB, f"build peak {build_peak / MiB:.1f} MiB"
    assert run_peak <= 4 * staging + 4 * MiB, \
        f"run peak {run_peak / MiB:.1f} MiB"

