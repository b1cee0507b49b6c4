"""Unit tests for the task-graph IR (`repro.plan.graph`)."""

from types import SimpleNamespace

import pytest

from repro.errors import SchedulerError
from repro.plan.graph import (BUFFER, CHAIN, COMBINE, COMPUTE, MOVE_DOWN,
                              MOVE_UP, QUEUE, SETUP, STAGE_RANK, TaskGraph)
from tests.reference.hazards import overlapping_handles


def chain_of(kinds):
    g = TaskGraph(level=0, tree_node=0)
    nodes = [g.add_node(k, chunk_index=0) for k in kinds]
    for a, b in zip(nodes, nodes[1:]):
        g.add_edge(a, b, CHAIN)
    return g, nodes


def test_node_kind_validated():
    g = TaskGraph()
    with pytest.raises(SchedulerError):
        g.add_node("teleport")


def test_edge_kind_validated():
    g = TaskGraph()
    a, b = g.add_node(SETUP), g.add_node(MOVE_DOWN)
    with pytest.raises(SchedulerError):
        g.add_edge(a, b, "wormhole")


def test_duplicate_and_self_edges_rejected_quietly():
    g = TaskGraph()
    a, b = g.add_node(SETUP), g.add_node(MOVE_DOWN)
    assert g.add_edge(a, b, CHAIN)
    assert not g.add_edge(a, b, QUEUE)      # any kind: already an edge
    assert not g.add_edge(a, a, CHAIN)      # self loop
    assert g.edge_count == 1


def test_ready_and_completion_bookkeeping():
    g, nodes = chain_of([SETUP, MOVE_DOWN, COMPUTE])
    assert [n.kind for n in g.ready()] == [SETUP]
    g.mark_running(nodes[0])
    assert g.ready() == []                  # running, not re-dispatchable
    g.mark_done(nodes[0])
    assert [n.kind for n in g.ready()] == [MOVE_DOWN]
    assert g.remaining == 2 and not g.complete
    for n in nodes[1:]:
        g.mark_running(n)
        g.mark_done(n)
    assert g.complete and g.remaining == 0


def test_dispatch_before_deps_raises():
    g, nodes = chain_of([SETUP, MOVE_DOWN])
    with pytest.raises(SchedulerError):
        g.mark_running(nodes[1])
    with pytest.raises(SchedulerError):
        g.mark_done(nodes[1])               # never dispatched


def test_late_edge_into_started_node_raises():
    """Every edge is added at lowering: one touching a node that has
    started raises, whichever end it is."""
    g = TaskGraph()
    a, b, c = g.add_node(SETUP), g.add_node(MOVE_DOWN), g.add_node(COMPUTE)
    g.mark_running(a)
    g.mark_done(a)
    g.mark_running(b)
    with pytest.raises(SchedulerError):
        g.add_edge(c, b, BUFFER)
    with pytest.raises(SchedulerError):
        g.add_edge(b, c, BUFFER)
    assert g.edge_count == 0


def test_critical_depth_and_stats():
    g, _nodes = chain_of([SETUP, MOVE_DOWN, COMPUTE, MOVE_UP, COMBINE])
    lone = g.add_node(SETUP, chunk_index=1)
    assert g.critical_depth() == 5
    s = g.stats()
    assert s["nodes"] == 6 and s["edges"] == 4
    assert s["by_kind"][SETUP] == 2
    assert s["edges_by_kind"] == {CHAIN: 4}
    assert lone.node_id == 5


def test_stage_rank_orders_unblocking_stages_first():
    """combine must outrank move_up: its completion releases window
    edges, letting the next chunk descend before the channel is booked."""
    assert STAGE_RANK[SETUP] < STAGE_RANK[MOVE_DOWN]
    assert STAGE_RANK[COMBINE] < STAGE_RANK[MOVE_UP]
    assert STAGE_RANK[MOVE_DOWN] < STAGE_RANK[COMPUTE] < STAGE_RANK[MOVE_UP]
    assert sorted(STAGE_RANK.values()) == [0, 1, 2, 3, 4]


def _h(node_id, alloc_id, base, nbytes):
    return SimpleNamespace(node_id=node_id, alloc_id=alloc_id,
                           base_offset=base, nbytes=nbytes)


def test_overlapping_handles_byte_windows():
    a = [_h(1, 7, 0, 100)]
    assert overlapping_handles(a, [_h(1, 7, 50, 10)])       # inside
    assert overlapping_handles(a, [_h(1, 7, 99, 100)])      # edge overlap
    assert not overlapping_handles(a, [_h(1, 7, 100, 50)])  # adjacent
    assert not overlapping_handles(a, [_h(1, 8, 0, 100)])   # other alloc
    assert not overlapping_handles(a, [_h(2, 7, 0, 100)])   # other node
    assert not overlapping_handles([], a) and not overlapping_handles(a, [])
