"""Tests for mapped-region handles (Section III-D's mmap alternative)."""

import numpy as np
import pytest

from repro.core.system import System
from repro.errors import AllocationError, TransferError
from repro.memory.units import MB
from repro.topology.builders import apu_two_level


@pytest.fixture
def system():
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=4 * MB))
    yield sys_
    sys_.close()


def test_map_region_views_parent_bytes(system):
    root = system.tree.root
    parent = system.alloc(256, root)
    system.preload(parent, np.arange(256, dtype=np.uint8))
    window = system.map_region(parent, 64, 32, label="win")
    assert window.is_mapped and window.nbytes == 32
    np.testing.assert_array_equal(system.fetch(window, np.uint8),
                                  np.arange(64, 96, dtype=np.uint8))


def test_writes_through_window_hit_parent(system):
    root = system.tree.root
    parent = system.alloc(128, root)
    window = system.map_region(parent, 16, 16)
    system.preload(window, np.full(16, 9, dtype=np.uint8))
    out = system.fetch(parent, np.uint8)
    assert (out[16:32] == 9).all() and out[:16].sum() == 0


def test_mapping_consumes_no_capacity(system):
    leaf = system.tree.leaves()[0]
    parent = system.alloc(1024, leaf)
    used = leaf.used
    system.map_region(parent, 0, 512)
    assert leaf.used == used
    assert system.registry.live_bytes_on_node(leaf.node_id) == 1024


def test_window_of_window(system):
    root = system.tree.root
    parent = system.alloc(100, root)
    system.preload(parent, np.arange(100, dtype=np.uint8))
    a = system.map_region(parent, 10, 50)
    b = system.map_region(a, 5, 10)
    np.testing.assert_array_equal(system.fetch(b, np.uint8),
                                  np.arange(15, 25, dtype=np.uint8))


def test_moves_between_window_and_other_node(system):
    root, leaf = system.tree.root, system.tree.leaves()[0]
    parent = system.alloc(1024, root)
    system.preload(parent, (np.arange(1024) % 251).astype(np.uint8))
    window = system.map_region(parent, 512, 128)
    child = system.alloc(128, leaf)
    system.move_down(child, window, 128)
    np.testing.assert_array_equal(
        system.fetch(child, np.uint8),
        (np.arange(512, 640, dtype=np.int64) % 251).astype(np.uint8))


def test_window_shares_dependency_times(system):
    root, leaf = system.tree.root, system.tree.leaves()[0]
    parent = system.alloc(1024, root)
    window = system.map_region(parent, 0, 512)
    child = system.alloc(512, leaf)
    res = system.move_down(child, window, 512)
    # Reading through the window marks the *parent* as read too.
    assert parent.last_read_end == pytest.approx(res.end)
    assert window.last_read_end == pytest.approx(res.end)


def test_bounds_validation(system):
    parent = system.alloc(64, system.tree.root)
    with pytest.raises(TransferError):
        system.map_region(parent, 32, 64)
    with pytest.raises(TransferError):
        system.map_region(parent, -1, 8)
    with pytest.raises(TransferError):
        system.map_region(parent, 0, 0)


def test_release_order_enforced(system):
    parent = system.alloc(64, system.tree.root)
    window = system.map_region(parent, 0, 32)
    with pytest.raises(AllocationError, match="mapped window"):
        system.release(parent)
    system.release(window)
    system.release(parent)
    assert system.registry.live_count == 0
    assert system.tree.root.used == 0


def test_release_error_counts_live_windows(system):
    """The registry counts windows per parent (no scan on release): the
    error names how many are still live, as the scan did."""
    parent = system.alloc(64, system.tree.root)
    windows = [system.map_region(parent, 8 * i, 8) for i in range(3)]
    system.release(windows.pop())
    with pytest.raises(AllocationError,
                       match=rf"#{parent.buffer_id} still has 2 mapped "
                             r"window\(s\); release them first"):
        system.release(parent)
    for w in windows:
        system.release(w)
    system.release(parent)
    assert system.registry.live_count == 0


def test_released_window_rejected(system):
    parent = system.alloc(64, system.tree.root)
    window = system.map_region(parent, 0, 32)
    system.release(window)
    with pytest.raises(AllocationError):
        system.fetch(window, np.uint8)


def test_fetch_preload_bounds_on_windows(system):
    parent = system.alloc(64, system.tree.root)
    window = system.map_region(parent, 32, 16)
    with pytest.raises(TransferError):
        system.preload(window, np.zeros(32, dtype=np.uint8))
    with pytest.raises(TransferError):
        system.fetch(window, np.uint8, count=32)


@pytest.mark.parametrize("entry", ["move", "move_down", "move_up",
                                   "move_transformed"])
def test_negative_offsets_cannot_reach_outside_a_window(system, entry):
    """A window's handle addresses its parent's storage: an offset below
    zero must be rejected, or the move reads -- or, as the destination,
    overwrites -- the parent's bytes outside the window."""
    from repro.core.layout import Identity
    nodes = [system.tree.root, system.tree.leaves()[0]]
    if entry == "move_up":              # leaf -> root; the rest go down
        nodes.reverse()
    parents, windows = [], []
    for node in nodes:
        parents.append(system.alloc(256, node))
        system.preload(parents[-1], np.arange(256, dtype=np.uint8))
        windows.append(system.map_region(parents[-1], 100, 100))
    src, dst = windows
    args = (100, Identity(100)) if entry == "move_transformed" else (100,)
    with pytest.raises(TransferError, match=r"read \[-50, 50\) out of"):
        getattr(system, entry)(dst, src, *args, src_offset=-50)
    with pytest.raises(TransferError, match=r"write \[-50, 50\) out of"):
        getattr(system, entry)(dst, src, *args, dst_offset=-50)
    for parent in parents:
        np.testing.assert_array_equal(system.fetch(parent, np.uint8),
                                      np.arange(256, dtype=np.uint8))
