"""Tests for the out-of-core GEMM application."""

import numpy as np
import pytest

from repro.apps.gemm import GemmApp, choose_gemm_tiles
from repro.core.system import System
from repro.errors import CapacityError, ConfigError
from repro.memory.units import KB, MB
from repro.topology.builders import (apu_two_level, discrete_gpu_three_level,
                                     exascale_node)


def run_gemm(tree, **kw):
    sys_ = System(tree)
    try:
        app = GemmApp(sys_, **kw)
        app.run(sys_)
        np.testing.assert_allclose(app.result(), app.reference(),
                                   rtol=1e-3, atol=1e-4)
        return sys_.breakdown(), sys_
    finally:
        sys_.close()


def test_tile_chooser_prefers_full_k_reuse():
    t = choose_gemm_tiles(256, 256, 256, elem_size=4,
                          budget_bytes=4 * MB, depth=2)
    assert t.tk == 256
    assert t.tm == t.tn
    assert t.tm % 8 == 0


def test_tile_chooser_budget_respected():
    t = choose_gemm_tiles(512, 512, 512, elem_size=4,
                          budget_bytes=600 * KB, depth=2)
    resident = (t.tm * 512 + 2 * 512 * t.tn + 2 * t.tm * t.tn) * 4 \
        if t.tk == 512 else 2 * (t.tm * t.tk + t.tk * t.tn + t.tm * t.tn) * 4
    assert resident <= 600 * KB


def test_tile_chooser_falls_back_to_k_split():
    # Budget too small for any full-k strip: must split k.
    t = choose_gemm_tiles(4096, 4096, 4096, elem_size=4,
                          budget_bytes=64 * KB, depth=2)
    assert t.tk < 4096


def test_tile_chooser_impossible_budget():
    # 2 sets of three 1x1 tiles need 6 elements; 2 fit.
    with pytest.raises(CapacityError):
        choose_gemm_tiles(64, 64, 64, elem_size=4, budget_bytes=8, depth=2)
    with pytest.raises(ConfigError):
        choose_gemm_tiles(0, 1, 1, elem_size=4, budget_bytes=MB)


def test_gemm_correct_on_apu_tree():
    bd, _ = run_gemm(apu_two_level(storage_capacity=8 * MB,
                                   staging_bytes=256 * KB),
                     m=128, k=128, n=128, seed=3)
    assert bd.gpu > 0 and bd.io > 0


def test_gemm_correct_nonsquare_ragged():
    # Dimensions that do not divide evenly by any tile choice.
    run_gemm(apu_two_level(storage_capacity=8 * MB,
                           staging_bytes=200 * KB),
             m=130, k=67, n=93, seed=5)


def test_gemm_correct_on_three_level_tree():
    bd, _ = run_gemm(discrete_gpu_three_level(storage_capacity=8 * MB,
                                              staging_bytes=512 * KB,
                                              gpu_mem_bytes=128 * KB),
                     m=96, k=96, n=96, seed=7)
    # Three levels: file I/O at the top, device transfers below.
    assert bd.io > 0 and bd.dev_transfer > 0


def test_gemm_correct_on_four_level_tree():
    """The same unmodified app runs on a deeper future-node hierarchy --
    the paper's portability claim."""
    from repro.memory.catalog import make_device
    from repro.topology.tree import TopologyTree
    from repro.compute.cpu import make_cpu_steamroller
    from repro.compute.gpu import make_gpu_w9100
    tree = TopologyTree()
    root = tree.add_node(make_device("nvm", capacity=8 * MB,
                                     instance="nvm.root"))
    dram = tree.add_node(make_device("dram", capacity=1 * MB,
                                     instance="dram"), parent=root,
                         processors=[make_cpu_steamroller()])
    hbm = tree.add_node(make_device("hbm", capacity=256 * KB,
                                    instance="hbm"), parent=dram)
    tree.add_node(make_device("gpu-mem", capacity=96 * KB,
                              instance="gpumem"), parent=hbm,
                  processors=[make_gpu_w9100()])
    run_gemm(tree, m=64, k=64, n=64, seed=11)


def test_gemm_releases_everything_but_roots():
    sys_ = System(apu_two_level(storage_capacity=8 * MB,
                                staging_bytes=256 * KB))
    try:
        app = GemmApp(sys_, m=64, k=64, n=64, seed=1)
        app.run(sys_)
        assert sys_.registry.live_count == 3  # A, B, C at the root
        app.release_root_buffers()
        assert sys_.registry.live_count == 0
        leaf = sys_.tree.leaves()[0]
        assert leaf.used == 0
    finally:
        sys_.close()


def test_gemm_reuse_reduces_read_traffic():
    """Section IV-A's optimisation, now provided by the buffer cache:
    with caching on, A is read from storage once per (i, p) region
    instead of once per (i, j, p) chunk; turning the cache off recovers
    the streamed-everything traffic."""
    from repro.cache.manager import CacheConfig
    from repro.apps.gemm import GemmTiles

    def io_read_bytes(cache_cfg):
        sys_ = System(apu_two_level(storage_capacity=8 * MB,
                                    staging_bytes=200 * KB),
                      cache=cache_cfg)
        try:
            app = GemmApp(sys_, m=128, k=128, n=128, seed=2,
                          force_tiles=GemmTiles(tm=32, tn=32, tk=128))
            app.run(sys_)
            np.testing.assert_allclose(app.result(), app.reference(),
                                       rtol=1e-3, atol=1e-4)
            from repro.sim.trace import Phase
            return sys_.breakdown().bytes_by_phase[Phase.IO_READ]

        finally:
            sys_.close()

    cached = io_read_bytes(CacheConfig())  # default "explicit" mode
    uncached = io_read_bytes(CacheConfig.disabled())
    assert cached < uncached
    # 4x4 output tiles, tk = k: cache hits serve 3 of every 4 A-region
    # reads, so exactly 12 of the 16 A transfers (32x128 floats each)
    # disappear; B streams either way.
    assert uncached - cached == 12 * 32 * 128 * 4


def test_gemm_pipelining_reduces_makespan():
    """At equal tile size, two B-buffer sets overlap loads with compute.

    Needs kernels comparable to transfers to have anything to overlap,
    so the tree carries a deliberately weak GPU.
    """
    from repro.apps.gemm import GemmTiles
    from repro.compute.processor import Processor, ProcessorKind
    from repro.memory.catalog import make_device
    from repro.topology.tree import TopologyTree

    def build_tree():
        tree = TopologyTree()
        root = tree.add_node(make_device("ssd", capacity=8 * MB,
                                         instance="ssd"))
        slow_gpu = Processor(name="slowgpu", kind=ProcessorKind.GPU,
                             peak_gflops=2.0, mem_bw=1e9)
        tree.add_node(make_device("dram", capacity=512 * KB,
                                  instance="dram"), parent=root,
                      processors=[slow_gpu])
        return tree

    def makespan(depth):
        sys_ = System(build_tree())
        try:
            app = GemmApp(sys_, m=128, k=128, n=128, seed=2,
                          pipeline_depth=depth,
                          force_tiles=GemmTiles(tm=32, tn=32, tk=128))
            app.run(sys_)
            np.testing.assert_allclose(app.result(), app.reference(),
                                       rtol=1e-3, atol=1e-4)
            return sys_.makespan()
        finally:
            sys_.close()

    assert makespan(2) < 0.95 * makespan(1)


def test_gemm_rejects_bad_dims():
    sys_ = System(apu_two_level(storage_capacity=8 * MB,
                                staging_bytes=256 * KB))
    try:
        with pytest.raises(ConfigError):
            GemmApp(sys_, m=0, k=4, n=4)
    finally:
        sys_.close()


def test_gemm_recursion_reaches_gpu_local_memory():
    """The paper leaves GPU on-chip blocking to future compiler work
    ("the GPU on-chip data movement may also be integrated into
    Northup's recursive model").  In this model it just works: a tree
    whose innermost level is the 64 KiB per-CU scratchpad decomposes the
    DRAM-level problem into local-memory tiles with the same app code."""
    from repro.compute.gpu import make_gpu_apu
    from repro.memory.catalog import make_device
    from repro.topology.tree import TopologyTree
    from repro.sim.trace import Phase

    tree = TopologyTree()
    root = tree.add_node(make_device("ssd", capacity=8 * MB, instance="s"))
    dram = tree.add_node(make_device("dram", capacity=256 * KB,
                                     instance="d"), parent=root)
    tree.add_node(make_device("gpu-local", instance="lds"), parent=dram,
                  processors=[make_gpu_apu()])
    sys_ = System(tree)
    try:
        app = GemmApp(sys_, m=96, k=96, n=96, seed=17)
        app.run(sys_)
        np.testing.assert_allclose(app.result(), app.reference(),
                                   rtol=1e-3, atol=1e-4)
        # Tiles really were scratchpad-sized: every kernel's working set
        # fits 64 KiB.
        lds = tree.leaves()[0]
        assert lds.capacity == 64 * 1024
        transfers = [iv for iv in sys_.timeline.trace
                     if iv.phase is Phase.DEV_TRANSFER]
        assert transfers and max(iv.nbytes for iv in transfers) <= 64 * 1024
    finally:
        sys_.close()
