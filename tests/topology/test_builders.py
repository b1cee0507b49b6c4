"""Unit tests for the prebuilt paper topologies."""

import pytest

from repro.compute.processor import ProcessorKind
from repro.errors import ConfigError
from repro.memory.device import StorageKind
from repro.memory.units import GB
from repro.topology.builders import (STAGING_BUFFER_BYTES, apu_two_level,
                                     discrete_gpu_three_level, exascale_node,
                                     figure2_asymmetric,
                                     in_memory_single_level)
from repro.topology.validate import validate_tree


def test_apu_two_level_shape():
    tree = apu_two_level()
    assert tree.get_max_treelevel() == 1
    assert tree.root.storage_type is StorageKind.FILE
    (leaf,) = tree.leaves()
    assert leaf.storage_type is StorageKind.MEM
    assert leaf.capacity == STAGING_BUFFER_BYTES  # the paper's 2 GB staging
    kinds = {p.kind for p in leaf.processors}
    assert kinds == {ProcessorKind.CPU, ProcessorKind.GPU}


def test_apu_storage_variants():
    assert apu_two_level(storage="hdd").root.device.spec.read_bw == 125e6
    assert apu_two_level(storage="ssd").root.device.spec.read_bw == 1400e6
    with pytest.raises(ConfigError):
        apu_two_level(storage="tape")


def test_apu_without_cpu():
    tree = apu_two_level(with_cpu=False)
    (leaf,) = tree.leaves()
    assert [p.kind for p in leaf.processors] == [ProcessorKind.GPU]


def test_discrete_gpu_three_level_shape():
    tree = discrete_gpu_three_level()
    assert tree.get_max_treelevel() == 2
    (leaf,) = tree.leaves()
    assert leaf.storage_type is StorageKind.GPU_DEVICE
    # The CPU attaches to the *non-leaf* DRAM node (Section III-B's
    # exception for CPU + discrete GPU systems).
    dram = tree.get_parent(leaf)
    assert any(p.kind is ProcessorKind.CPU for p in dram.processors)
    assert all(p.kind is ProcessorKind.GPU for p in leaf.processors)


def test_in_memory_single_level():
    tree = in_memory_single_level()
    assert tree.get_max_treelevel() == 0
    assert tree.root.is_leaf
    assert tree.root.capacity == 16 * GB  # the paper's in-memory config


def test_figure2_numbering_and_asymmetry():
    tree = figure2_asymmetric()
    # Node 3 has two children, 6 and 7 -- the example in Section III-C.
    node3 = tree.node(3)
    assert [c.node_id for c in tree.get_children_list(node3)] == [6, 7]
    levels = {n.node_id: n.level for n in tree.nodes()}
    assert levels[0] == 0 and levels[1] == 1 and levels[4] == 2
    assert levels[6] == 3
    # Leaves sit at different depths: that is what "asymmetric" means.
    leaf_levels = {leaf.level for leaf in tree.leaves()}
    assert len(leaf_levels) > 1


def test_exascale_node_depth():
    tree = exascale_node()
    assert tree.get_max_treelevel() == 3
    kinds = [n.storage_type for n in tree.nodes()]
    assert kinds == [StorageKind.MEM, StorageKind.MEM, StorageKind.MEM,
                     StorageKind.GPU_DEVICE]


@pytest.mark.parametrize("factory", [
    apu_two_level, discrete_gpu_three_level, in_memory_single_level,
    figure2_asymmetric, exascale_node,
])
def test_all_builders_validate(factory):
    validate_tree(factory())
