#!/usr/bin/env python
"""External merge sort with a visualisable execution trace.

Sorts a vector ~40x larger than the staging buffer: sorted runs form on
the leaf processor, then k-way merge passes stream run blocks through
the staging level.  The run report (breakdown, busy seconds by resource,
critical path) is printed, and the full timeline is exported in Chrome
Trace Event format -- open it in chrome://tracing or https://ui.perfetto.dev
to see loads, kernels, and flushes overlapping on their resources.

Run:  python examples/external_sort.py
"""

import os
import tempfile

import numpy as np

from repro.apps.sort import SortApp
from repro.core.system import System
from repro.memory.units import KB, MB
from repro.obs.report import RunReport
from repro.tools.trace_export import write_chrome_trace
from repro.topology.builders import apu_two_level


def main() -> None:
    n = 250_000                    # ~1 MB of float32
    staging = 24 * KB              # runs are ~3k elements

    system = System(apu_two_level(storage_capacity=64 * MB,
                                  staging_bytes=staging))
    try:
        app = SortApp(system, n=n, seed=13)
        app.run(system)

        result = app.result()
        assert np.array_equal(result, app.reference())
        print(f"verified: {n} elements sorted out-of-core")
        print(f"  initial runs: {len(app.runs)} "
              f"(~{app.runs[0].size} elements each)")
        print(f"  virtual runtime: {system.makespan() * 1e3:.2f} ms")
        bd = system.breakdown()
        print(f"  busy time: {bd.gpu * 1e3:.2f} ms kernels, "
              f"{bd.io * 1e3:.2f} ms storage I/O")

        print()
        print(RunReport.from_system(system, name="external sort").table())
        print()
        out = os.path.join(tempfile.gettempdir(), "northup_sort_trace.json")
        events = write_chrome_trace(system.timeline.trace, out)
        print(f"  trace: {events} events written to {out}")
        print("  (load it in chrome://tracing to see the merge pipeline)")
        app.release_root_buffers()
    finally:
        system.close()


if __name__ == "__main__":
    main()
