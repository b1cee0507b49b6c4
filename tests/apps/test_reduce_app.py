"""Tests for the out-of-core reduction application."""

import numpy as np
import pytest

from repro.apps.reduce import ReduceApp
from repro.core.system import System
from repro.errors import ConfigError
from repro.memory.units import KB, MB
from repro.sim.trace import Phase
from repro.topology.builders import apu_two_level, discrete_gpu_three_level


def run_reduce(tree, **kw):
    sys_ = System(tree)
    try:
        app = ReduceApp(sys_, **kw)
        app.run(sys_)
        assert app.result() == pytest.approx(app.reference(), rel=1e-9)
        return sys_.breakdown(), app, sys_
    finally:
        sys_.close()


@pytest.mark.parametrize("op", ["sum", "max", "min", "l2"])
def test_reduction_ops_correct(op):
    bd, _, _ = run_reduce(apu_two_level(storage_capacity=16 * MB,
                                        staging_bytes=32 * KB),
                          n=50_000, op=op, seed=3)
    assert bd.gpu > 0 and bd.io > 0


def test_reduction_many_chunks():
    """The vector dwarfs the staging buffer: dozens of chunks, one
    8-byte result."""
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=16 * KB))
    try:
        app = ReduceApp(sys_, n=100_000, op="sum", seed=5)
        app.run(sys_)
        assert app.result() == pytest.approx(app.reference(), rel=1e-9)
        from repro.sim.trace import Phase
        chunk_loads = [iv for iv in sys_.timeline.trace
                       if iv.phase is Phase.IO_READ
                       and iv.label == "data down"]
        assert len(chunk_loads) > 20
        # The only upward traffic is the single 8-byte result.
        ups = [iv for iv in sys_.timeline.trace
               if iv.phase is Phase.IO_WRITE]
        assert len(ups) == 1 and ups[0].nbytes == 8
    finally:
        sys_.close()


def test_reduction_on_three_level_tree():
    run_reduce(discrete_gpu_three_level(storage_capacity=16 * MB,
                                        staging_bytes=64 * KB,
                                        gpu_mem_bytes=16 * KB),
               n=30_000, op="l2", seed=7)


def test_reduction_releases_everything():
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=32 * KB))
    try:
        app = ReduceApp(sys_, n=20_000, op="max", seed=9)
        app.run(sys_)
        assert sys_.registry.live_count == 2  # data + result at root
        app.release_root_buffers()
        assert sys_.registry.live_count == 0
        assert sys_.tree.leaves()[0].used == 0
    finally:
        sys_.close()


def test_reduction_single_chunk_degenerate():
    run_reduce(apu_two_level(storage_capacity=16 * MB,
                             staging_bytes=4 * MB),
               n=100, op="sum", seed=1)


def test_reduction_validation():
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=32 * KB))
    try:
        with pytest.raises(ConfigError):
            ReduceApp(sys_, n=0)
        with pytest.raises(ConfigError):
            ReduceApp(sys_, n=10, op="xor")
    finally:
        sys_.close()


@pytest.mark.parametrize("op", ["sum", "max", "min", "l2"])
def test_reduction_is_the_same_on_every_backend(op):
    """The fold and the combine are kernel specs, so every compute
    backend runs them: same result bytes, makespan and trace as inline,
    one executor task per compute launch."""
    seen = []
    for backend in ("inline", "shm", "dist"):
        sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                    staging_bytes=32 * KB), executor=backend)
        try:
            app = ReduceApp(sys_, n=50_000, op=op, seed=3)
            app.run(sys_)
            trace = sys_.timeline.trace
            launches = sum(1 for iv in trace if iv.phase in (
                Phase.GPU_COMPUTE, Phase.CPU_COMPUTE))
            assert launches > 2
            assert sys_.executor.stats.submitted == launches
            seen.append((sys_.fetch(app.out_root, np.uint8).tobytes(),
                         sys_.makespan(), len(trace)))
        finally:
            sys_.close()
    assert seen[0][0] == np.float64(app.reference()).tobytes()
    assert seen[1] == seen[0] and seen[2] == seen[0]
