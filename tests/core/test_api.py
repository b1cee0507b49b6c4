"""Unit tests for the paper-style functional API."""

import numpy as np
import pytest

from repro.core import api
from repro.core.system import System
from repro.errors import NorthupError, TransferError
from repro.memory.device import StorageKind
from repro.memory.units import MB
from repro.topology.builders import apu_two_level


@pytest.fixture
def system():
    sys_ = System(apu_two_level(storage_capacity=64 * MB,
                                staging_bytes=16 * MB))
    yield sys_
    sys_.close()


def test_no_session_raises():
    with pytest.raises(NorthupError, match="no active Northup session"):
        api.get_cur_treenode()


def test_session_exposes_queries(system):
    with api.northup_session(system) as root_ctx:
        assert api.get_cur_treenode() is system.tree.root
        assert api.get_level() == 0
        assert api.get_max_treelevel() == 1
        assert api.fetch_node_type(0) is StorageKind.FILE
        assert api.get_parent(1) is system.tree.root
        assert [n.node_id for n in api.get_children_list(0)] == [1]
        assert root_ctx.node is system.tree.root
    with pytest.raises(NorthupError):
        api.get_level()


def test_listing3_style_flow(system):
    """An end-to-end flow written the way Listing 3 reads."""
    with api.northup_session(system) as root_ctx:
        node = api.get_cur_treenode()
        src = api.alloc(1024, node.node_id, label="matrix")
        system.preload(src, np.arange(1024, dtype=np.uint8))

        child = api.get_children_list(node.node_id)[0]
        dst = api.alloc(1024, child.node_id)
        api.move_data_down(dst, src, 1024, 0, 0)

        child_ctx = root_ctx.descend(child)
        with api.use_context(child_ctx):
            assert api.get_level() == 1
            assert api.get_device().kind.value == "gpu"
            back = api.alloc(1024, node.node_id)
            api.move_data_up(back, dst, 1024)
        np.testing.assert_array_equal(system.fetch(back, np.uint8),
                                      np.arange(1024, dtype=np.uint8))
        for h in (src, dst, back):
            api.release(h)
    assert system.registry.live_count == 0


def test_move_data_validates_node_arguments(system):
    with api.northup_session(system):
        a = api.alloc(64, 0)
        b = api.alloc(64, 1)
        api.move_data(b, a, 64, 0, dst_tree_node=1, src_tree_node=0)
        with pytest.raises(TransferError):
            api.move_data(b, a, 64, 0, dst_tree_node=0)
        with pytest.raises(TransferError):
            api.move_data(b, a, 64, 0, src_tree_node=1)


def test_move_data_down_validates_child_index(system):
    with api.northup_session(system):
        src = api.alloc(64, 0)
        dst = api.alloc(64, 1)
        with pytest.raises(TransferError, match="out of range"):
            api.move_data_down(dst, src, 64, 0, i=5)
        # dst on the wrong node for child 0:
        other = api.alloc(64, 0)
        with pytest.raises(TransferError, match="not child"):
            api.move_data_down(other, src, 64, 0, i=0)


def test_move_data_windows_round_trip(system):
    """A strided 2-D window down to the child and back up into another
    place of a root buffer."""
    matrix = np.arange(64, dtype=np.uint8).reshape(8, 8)
    with api.northup_session(system) as root_ctx:
        src = api.alloc(64, 0)
        back = api.alloc(64, 0)
        system.preload(src, matrix)
        tile = api.alloc(16, 1)
        # Rows 2-5, columns 4-7: four runs of 4 bytes, stride 8.
        api.move_data_down(tile, src, 16, 0, 0, src_offset=2 * 8 + 4,
                           rows=4, src_stride=8)
        with api.use_context(root_ctx.descend(1)):
            api.move_data_up(back, tile, 16, 0, rows=4, dst_stride=8)
            with pytest.raises(TransferError, match="not the current node"):
                api.move_data_up(back, src, 16)
        with pytest.raises(TransferError, match="split into 3 rows"):
            api.move_data_down(tile, src, 16, 0, 0, rows=3)
        got = system.fetch(back, np.uint8, shape=(8, 8))
        np.testing.assert_array_equal(got[:4, :4], matrix[2:6, 4:8])


def test_move_data_up_from_root_rejected(system):
    with api.northup_session(system):
        a = api.alloc(64, 0)
        b = api.alloc(64, 0)
        with pytest.raises(TransferError, match="no parent"):
            api.move_data_up(a, b, 64)


def test_offset_applies_to_destination(system):
    with api.northup_session(system):
        src = api.alloc(16, 0)
        dst = api.alloc(64, 1)
        system.preload(src, np.full(16, 7, dtype=np.uint8))
        api.move_data(dst, src, 16, offset=32)
        out = system.fetch(dst, np.uint8)
        assert out[:32].sum() == 0
        assert (out[32:48] == 7).all()


def test_northup_spawn_descends_and_restores(system):
    with api.northup_session(system) as root_ctx:
        child = api.get_children_list(0)[0]

        def body(ctx, tag):
            assert api.get_level() == 1
            assert ctx.parent_ctx is root_ctx
            return f"ran-{tag}"

        result = api.northup_spawn(body, child, "x")
        assert result == "ran-x"
        # The ambient context is back at the root afterwards.
        assert api.get_level() == 0


def test_northup_spawn_carries_chunk_and_payload(system):
    with api.northup_session(system):
        child = api.get_children_list(0)[0]

        def body(ctx):
            return (ctx.chunk, ctx.payload)

        chunk, payload = api.northup_spawn(body, child, chunk=(1, 2),
                                           payload={"k": 3})
        assert chunk == (1, 2) and payload == {"k": 3}
