"""Unit tests for the execution context."""

import pytest

from repro.compute.processor import ProcessorKind
from repro.core.context import root_context
from repro.core.system import System
from repro.errors import SchedulerError, TopologyError
from repro.memory.units import MB
from repro.topology.builders import (apu_two_level, discrete_gpu_three_level,
                                     figure2_asymmetric)


@pytest.fixture
def apu_ctx():
    sys_ = System(apu_two_level(storage_capacity=64 * MB,
                                staging_bytes=16 * MB))
    yield root_context(sys_)
    sys_.close()


def test_root_context_at_root(apu_ctx):
    assert apu_ctx.get_cur_treenode() is apu_ctx.system.tree.root
    assert apu_ctx.get_level() == 0
    assert apu_ctx.get_max_treelevel() == 1
    assert not apu_ctx.is_leaf


def test_descend_tracks_level_and_payload(apu_ctx):
    child = apu_ctx.first_child()
    ctx2 = apu_ctx.descend(child, chunk=(0, 1), payload={"k": "v"})
    assert ctx2.get_level() == 1
    assert ctx2.chunk == (0, 1)
    assert ctx2.payload == {"k": "v"}
    assert ctx2.parent_ctx is apu_ctx
    assert ctx2.is_leaf


def test_descend_to_non_child_rejected(apu_ctx):
    with pytest.raises(SchedulerError):
        apu_ctx.descend(apu_ctx.node)


def test_descend_charges_runtime(apu_ctx):
    before = apu_ctx.system.runtime_ops
    apu_ctx.descend(apu_ctx.first_child())
    assert apu_ctx.system.runtime_ops > before


def test_first_child_on_leaf_rejected(apu_ctx):
    leaf_ctx = apu_ctx.descend(apu_ctx.first_child())
    with pytest.raises(SchedulerError):
        leaf_ctx.first_child()


def test_get_device_by_kind(apu_ctx):
    leaf_ctx = apu_ctx.descend(apu_ctx.first_child())
    assert leaf_ctx.get_device(ProcessorKind.GPU).kind is ProcessorKind.GPU
    assert leaf_ctx.get_device(ProcessorKind.CPU).kind is ProcessorKind.CPU
    assert leaf_ctx.get_device() is leaf_ctx.node.processors[0]
    with pytest.raises(TopologyError):
        leaf_ctx.get_device(ProcessorKind.FPGA)


def test_get_device_searches_upward():
    # Discrete-GPU tree: the CPU hangs off the DRAM node; a context at
    # the GPU-memory leaf still finds it by walking up.
    sys_ = System(discrete_gpu_three_level(storage_capacity=64 * MB,
                                           staging_bytes=16 * MB,
                                           gpu_mem_bytes=16 * MB))
    try:
        ctx = root_context(sys_)
        dram_ctx = ctx.descend(ctx.first_child())
        leaf_ctx = dram_ctx.descend(dram_ctx.first_child())
        assert leaf_ctx.get_device(ProcessorKind.GPU).name == "gpu-w9100"
        assert leaf_ctx.get_device(ProcessorKind.CPU).name == "cpu0"
    finally:
        sys_.close()


def test_is_leaf_on_asymmetric_tree():
    sys_ = System(figure2_asymmetric())
    try:
        ctx = root_context(sys_)
        # Node 4 is a leaf at level 2 even though the deepest level is 3.
        right = ctx.descend(sys_.tree.node(2))
        hbm4 = right.descend(sys_.tree.node(4))
        assert hbm4.is_leaf
        assert hbm4.get_level() == 2
        assert hbm4.get_max_treelevel() == 3
    finally:
        sys_.close()
