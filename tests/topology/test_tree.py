"""Unit tests for the topology tree and its query API."""

import pytest

from repro.compute.cpu import make_cpu_steamroller
from repro.compute.gpu import make_gpu_apu
from repro.errors import TopologyError
from repro.memory.catalog import make_device
from repro.memory.channel import PCIE3_X4, Link
from repro.memory.device import StorageKind
from repro.topology.tree import TopologyTree


def small_tree():
    tree = TopologyTree()
    root = tree.add_node(make_device("ssd", instance="s0"))
    dram = tree.add_node(make_device("dram", instance="d0"), parent=root,
                         processors=[make_gpu_apu(), make_cpu_steamroller()])
    return tree, root, dram


def test_ids_assigned_in_insertion_order():
    tree, root, dram = small_tree()
    assert root.node_id == 0
    assert dram.node_id == 1
    assert len(tree) == 2


def test_levels_root_is_zero():
    tree, root, dram = small_tree()
    assert tree.get_level(root) == 0
    assert tree.get_level(dram.node_id) == 1
    assert tree.get_max_treelevel() == 1


def test_query_api_matches_paper_names():
    tree, root, dram = small_tree()
    assert tree.fetch_node_type(root) is StorageKind.FILE
    assert tree.fetch_node_type(dram.node_id) is StorageKind.MEM
    assert tree.get_parent(dram) is root
    assert tree.get_parent(root) is None
    assert tree.get_children_list(root) == [dram]
    assert tree.get_children_list(dram) == []


def test_single_root_enforced():
    tree, _, _ = small_tree()
    with pytest.raises(TopologyError):
        tree.add_node(make_device("hdd", instance="h9"))


def test_empty_tree_errors():
    tree = TopologyTree()
    with pytest.raises(TopologyError):
        _ = tree.root
    assert list(tree.nodes()) == []


def test_unknown_node_id():
    tree, _, _ = small_tree()
    with pytest.raises(TopologyError):
        tree.node(99)
    assert 0 in tree and 99 not in tree


def test_default_link_assigned_on_edges():
    tree, root, dram = small_tree()
    assert root.uplink is None
    assert dram.uplink is PCIE3_X4  # ssd <-> dram


def test_explicit_link_respected():
    tree = TopologyTree()
    root = tree.add_node(make_device("ssd", instance="s0"))
    fabric = Link(name="fabric", bandwidth=5e9)
    n = tree.add_node(make_device("dram", instance="d0"), parent=root,
                      link=fabric)
    assert n.uplink is fabric


def test_bfs_order_and_leaves():
    tree = TopologyTree()
    root = tree.add_node(make_device("hdd", instance="h"))
    a = tree.add_node(make_device("dram", instance="a"), parent=root)
    b = tree.add_node(make_device("dram", instance="b"), parent=root)
    c = tree.add_node(make_device("hbm", instance="c"), parent=a)
    ids = [n.node_id for n in tree.nodes()]
    assert ids == [0, 1, 2, 3]
    assert {n.node_id for n in tree.leaves()} == {b.node_id, c.node_id}
    assert [n for n in tree.nodes() if n.level == 1] == [a, b]


def test_path_to_root_and_lca():
    tree = TopologyTree()
    root = tree.add_node(make_device("hdd", instance="h"))
    a = tree.add_node(make_device("dram", instance="a"), parent=root)
    b = tree.add_node(make_device("dram", instance="b"), parent=root)
    c = tree.add_node(make_device("hbm", instance="c"), parent=a)
    assert [n.node_id for n in c.path_to_root()] == [c.node_id, a.node_id, 0]
    assert tree.lowest_common_ancestor(c, b) is root
    assert tree.lowest_common_ancestor(c, a) is a
    assert tree.lowest_common_ancestor(c, c) is c


def test_node_memory_accounting_fields():
    tree, _, dram = small_tree()
    assert dram.used == 0
    handle = dram.device.allocate(1024)
    assert dram.used == 1024
    assert dram.free == dram.capacity - 1024
    dram.device.release(handle)


def test_processor_lookup():
    _, _, dram = small_tree()
    assert dram.processor_named("cpu0").name == "cpu0"
    with pytest.raises(KeyError):
        dram.processor_named("fpga9")
    assert dram.has_processor()


def test_render_mentions_every_node():
    tree, _, _ = small_tree()
    text = tree.render()
    assert "s0" in text and "d0" in text
    assert "gpu-apu" in text and "L0" in text and "L1" in text


def test_parent_from_other_tree_rejected():
    tree1, root1, _ = small_tree()
    tree2 = TopologyTree()
    with pytest.raises(TopologyError):
        tree2.add_node(make_device("dram", instance="x"), parent=root1)
