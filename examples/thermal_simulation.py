#!/usr/bin/env python
"""Thermal simulation of a chip floorplan, out-of-core.

The motivating HPC scenario of Section IV-B: a temperature grid too
large for the staging memory is advanced through HotSpot-2D Euler steps
by streaming halo-padded blocks through the hierarchy.  The same
application code runs on a one-node DRAM tree (in-memory processing)
and against the SSD and the disk configuration; the script reports the
slowdown of each storage against in memory (Figure 6's comparison, at
example scale) and where the heat ended up.

Run:  python examples/thermal_simulation.py
"""

import numpy as np

from repro.apps import HotspotApp
from repro.core.system import System
from repro.memory.units import KB, MB
from repro.topology.builders import apu_two_level, in_memory_single_level


def run(tree, n: int, iterations: int):
    """The same app on any tree: its final grid and virtual runtime."""
    system = System(tree)
    try:
        app = HotspotApp(system, n=n, iterations=iterations,
                         steps_per_pass=iterations, seed=7)
        app.run(system)
        final = app.result()
        assert np.allclose(final, app.reference(), rtol=1e-4, atol=1e-4)
        return final, system.makespan()
    finally:
        system.close()


def main() -> None:
    n, iterations = 256, 4

    final, in_memory = run(in_memory_single_level(), n, iterations)
    hot = np.unravel_index(np.argmax(final), final.shape)
    print(f"HotSpot-2D: {n}x{n} grid, {iterations} Euler steps")
    print(f"  hottest cell: {hot} at {final.max():.2f} "
          f"(ambient {final.min():.2f})")
    print(f"  in-memory virtual runtime: {in_memory * 1e3:.2f} ms")
    print()

    print(f"{'storage':<8}{'runtime':>12}{'vs in-memory':>14}")
    for storage in ("ssd", "hdd"):
        _, t = run(apu_two_level(storage=storage, storage_capacity=64 * MB,
                                 staging_bytes=192 * KB), n, iterations)
        print(f"{storage:<8}{t * 1e3:>10.2f} ms{t / in_memory:>13.2f}x")
    print()
    print("(At this toy scale the disk pays a full ~12 ms seek per ~40 KB")
    print(" block, so it looks far worse than in the paper; the benchmark")
    print(" suite uses properly scaled block sizes -- see benchmarks/.)")
    print()
    print("Same application code, three storage configurations -- the")
    print("topology tree absorbs the difference (results verified "
          "against the full-grid reference each time).")


if __name__ == "__main__":
    main()
