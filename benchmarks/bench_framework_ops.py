"""Host-side overhead of the framework's hot-path operations.

Thin shim over the op factory in :mod:`repro.bench.cells` -- the same
closures back ``benchmarks/scenarios/framework_ops.toml``; this file
keeps the pytest-benchmark statistics (per-round setup hook, timing
distribution) that the scenario cell summarises as p50/min.

Unlike the figure benches (which measure *virtual* time), these measure
the real Python cost of alloc/move/launch/map on this machine -- the
number a user pays per chunk.  Rounds are bounded and the timeline is
reset between rounds so every round measures the same state.  (The
indexed slot scheduler keeps gap-search cost flat as bookings
accumulate, but resetting still isolates the per-op cost from
allocator and trace growth.)
"""

import pytest

from repro.bench.cells import framework_op
from repro.core.system import System
from repro.memory.units import MB
from repro.topology.builders import apu_two_level

ROUNDS = 200
ITERATIONS = 1  # pytest-benchmark requires iterations=1 with a setup hook


@pytest.fixture
def system():
    sys_ = System(apu_two_level(storage_capacity=256 * MB,
                                staging_bytes=64 * MB))
    yield sys_
    sys_.close()


def _measure(benchmark, system, op):
    fn = framework_op(system, op)

    def reset_state():
        system.reset_time()
        return (), {}

    benchmark.pedantic(fn, rounds=ROUNDS, iterations=ITERATIONS,
                       setup=reset_state)


def test_alloc_release_cycle(benchmark, system):
    _measure(benchmark, system, "alloc_release")


def test_move_64k(benchmark, system):
    _measure(benchmark, system, "move_64k")


def test_move_2d_block(benchmark, system):
    _measure(benchmark, system, "move_2d")


def test_kernel_launch(benchmark, system):
    _measure(benchmark, system, "kernel_launch")


def test_map_region(benchmark, system):
    _measure(benchmark, system, "map_region")
