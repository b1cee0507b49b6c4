"""Golden record of the five cache outcomes.

Each outcome is one consult of the buffer cache on a small in-memory
APU tree (storage root -> DRAM staging node):

* a lease (``System.fetch_down``) that hits, misses, or finds no room;
* a transparent ``full``-mode move that hits, or misses and admits.

For each, the exact trace rows it adds, the cache counters, the
returned handle's readiness and the order of the prefetch engine's
calls (each with its position among the new trace rows) are fixed
here, so a change to the consult protocol that moves a charge, a
stamp or an engine call shows up as a diff.
"""

import numpy as np
import pytest

from repro.cache.manager import CacheConfig
from repro.cache.spec import FetchSpec
from repro.core.system import System
from repro.memory.units import KB
from repro.topology.builders import apu_two_level

ENGINE_CALLS = ("consume", "issue", "notify_access")
#: The root -> staging edge's resource path.
DOWN = "ssd.root.ch+pcie3x4.down+dram.staging.wr"


def make_system(mode, **cfg):
    tree = apu_two_level(storage_capacity=256 * KB, staging_bytes=64 * KB)
    system = System(tree, cache=CacheConfig(mode=mode, **cfg))
    calls = []
    engine = system.cache.engine
    for name in ENGINE_CALLS:
        def recorder(*args, _name=name, _real=getattr(engine, name)):
            node = args[0]
            calls.append((_name, getattr(node, "node_id", node),
                          len(system.timeline.trace)))
            return _real(*args)
        setattr(engine, name, recorder)
    return system, calls


def fill_root(system, nbytes):
    handle = system.alloc(nbytes, system.tree.root, label="src")
    system.preload(handle, np.arange(nbytes, dtype=np.uint8))
    return handle


def rows_since(system, mark):
    return [(iv.resource, iv.phase.value, iv.label, iv.nbytes, iv.start,
             iv.end) for iv in list(system.timeline.trace)[mark:]]


def calls_since(calls, first, mark):
    """Engine calls from index ``first`` on, each with its position in
    the trace relative to ``mark``."""
    return [(name, node_id, at - mark) for name, node_id, at in calls[first:]]


def counters(system):
    st = system.cache.total_stats()
    return (st.hits, st.misses, st.admissions, st.evictions, st.hit_bytes,
            st.miss_bytes, st.prefetch_issued, st.prefetch_used)


@pytest.fixture
def lease_run():
    """Lease miss (which prefetches the planned next window), a lease
    hit on that prefetched window, then a lease too big for the cache
    budget that falls back to a plain staging copy."""
    system, calls = make_system("explicit", lookahead=1)
    try:
        src = fill_root(system, 64 * KB)
        child = system.tree.root.children[0]
        a = FetchSpec.contiguous(src, 0, 8 * KB)
        b = FetchSpec.contiguous(src, 8 * KB, 8 * KB)
        system.cache.engine.plan_level(system.tree.root,
                                       [(child, a), (child, b)])
        steps = []
        for kw in (dict(nbytes=8 * KB, src_offset=0),
                   dict(nbytes=8 * KB, src_offset=8 * KB),
                   dict(rows=4, row_bytes=10 * KB, src_stride=12 * KB,
                        src_offset=4 * KB)):
            mark, first = len(system.timeline.trace), len(calls)
            handle = system.fetch_down(child, src, label="", **kw)
            steps.append((rows_since(system, mark),
                          calls_since(calls, first, mark),
                          counters(system), handle.ready_at,
                          system.fetch(handle, np.uint8)))
            system.fetch_release(handle)
        yield steps
    finally:
        system.close()


def test_lease_miss(lease_run):
    rows, calls, stats, ready, got = lease_run[0]
    assert rows == [
        ("host", "setup", "cache-alloc@1", 0, 0.0001205,
         0.00012550000000000001),
        (DOWN, "io_read", "cache-fill:src", 8000, 0.00012,
         0.00021581428571428572),
        ("host", "runtime", "", 0, 0.00012550000000000001,
         0.00012600000000000003),
        ("host", "setup", "cache-alloc@1", 0, 0.00012600000000000003,
         0.00013100000000000004),
        (DOWN, "io_read", "cache-prefetch:src", 8000,
         0.00021581428571428572, 0.00031162857142857144),
        ("host", "runtime", "", 0, 0.00013100000000000004,
         0.00013150000000000005),
    ]
    assert calls == [("consume", 1, 0), ("issue", 1, 3)]
    assert stats == (0, 1, 2, 0, 0, 8000, 1, 0)
    assert ready == 0.00021581428571428572
    np.testing.assert_array_equal(got, np.arange(8 * KB) % 256)


def test_lease_hit(lease_run):
    rows, calls, stats, ready, got = lease_run[1]
    assert rows == [
        ("host", "cache", "cache-hit:src", 8000, 0.00013200000000000006,
         0.00013250000000000008),
        ("host", "runtime", "", 0, 0.00013250000000000008,
         0.0001330000000000001),
    ]
    assert calls == [("notify_access", 1, 2), ("consume", 1, 2),
                     ("issue", 1, 2)]
    assert stats == (1, 1, 2, 0, 8000, 8000, 1, 1)
    assert ready == 0.00031162857142857144
    np.testing.assert_array_equal(got, (np.arange(8 * KB) + 8 * KB) % 256)


def test_lease_without_room(lease_run):
    rows, calls, stats, ready, got = lease_run[2]
    assert rows == [
        ("host", "setup", "fetch:src", 0, 0.0001335000000000001,
         0.00013850000000000011),
        ("host", "runtime", "", 0, 0.00013850000000000011,
         0.00013900000000000013),
        (DOWN, "io_read", "", 40000, 0.00031162857142857144, 0.0004303),
        ("host", "runtime", "", 0, 0.00013900000000000013,
         0.00014000000000000012),
    ]
    assert calls == [("consume", 1, 0)]
    assert stats == (1, 2, 2, 0, 8000, 48000, 1, 1)
    assert ready == 0.0004303
    want = np.concatenate([np.arange(4 * KB + r * 12 * KB,
                                     14 * KB + r * 12 * KB)
                           for r in range(4)]) % 256
    np.testing.assert_array_equal(got, want)


def test_transparent_miss_admits_then_hits():
    system, calls = make_system("full", lookahead=0)
    try:
        src = fill_root(system, 64 * KB)
        child = system.tree.root.children[0]
        dst = system.alloc(16 * KB, child, label="dst")
        steps = []
        for dst_offset in (0, 8 * KB):
            mark, first = len(system.timeline.trace), len(calls)
            res = system.move_2d(dst, src, rows=2, row_bytes=4 * KB,
                                 src_offset=2 * KB, src_stride=6 * KB,
                                 dst_offset=dst_offset, dst_stride=4 * KB,
                                 label="")
            steps.append(((res.start, res.end, res.nbytes, res.hops),
                          rows_since(system, mark),
                          calls_since(calls, first, mark),
                          counters(system), dst.ready_at))
        miss, hit = steps
        assert miss == (
            (0.00012, 0.00021581428571428572, 8000, 1),
            [(DOWN, "io_read", "", 8000, 0.00012, 0.00021581428571428572),
             ("host", "runtime", "", 0, 0.00012600000000000003,
              0.00012700000000000002),
             ("host", "setup", "cache-alloc@1", 0, 0.00012700000000000002,
              0.00013200000000000004)],
            [("consume", 1, 2), ("issue", 1, 3)],
            (0, 1, 1, 0, 0, 8000, 0, 0),
            0.00021581428571428572)
        assert hit == (
            (0.00021581428571428572, 0.00021631428571428573, 8000, 0),
            [("host", "cache", "cache-hit:src", 8000,
              0.00021581428571428572, 0.00021631428571428573),
             ("host", "runtime", "", 0, 0.00013200000000000004,
              0.00013250000000000005)],
            [("notify_access", 1, 2), ("consume", 1, 2), ("issue", 1, 2)],
            (1, 1, 1, 0, 8000, 8000, 0, 0),
            0.00021631428571428573)
        window = np.concatenate([np.arange(2 * KB, 6 * KB),
                                 np.arange(8 * KB, 12 * KB)]) % 256
        np.testing.assert_array_equal(system.fetch(dst, np.uint8),
                                      np.tile(window, 2))
    finally:
        system.close()
