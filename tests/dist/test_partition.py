"""The graph partitioner: balance, contiguity, chain integrity, and
boundary-edge planning."""

import pytest

from repro.core.scheduler import InOrderScheduler
from repro.core.system import System
from repro.errors import SchedulerError
from repro.memory.units import KB, MB
from repro.plan.graph import CHAIN
from repro.plan.partition import partition_graph, shipment_bytes
from repro.topology.builders import apu_two_level


@pytest.fixture(scope="module")
def gemm_plan():
    """A drained top-level gemm plan (several chunks);
    module-scoped -- the partitioner never mutates the graph."""
    from repro.apps.gemm import GemmApp

    sched = InOrderScheduler(keep_plans=True)
    sys_ = System(apu_two_level(storage_capacity=8 * MB,
                                staging_bytes=256 * KB))
    try:
        app = GemmApp(sys_, m=128, k=128, n=128, seed=3)
        app.run(sys_, scheduler=sched)
        yield sched.plans[0]
    finally:
        sys_.close()


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_chunk_partition_covers_every_node(gemm_plan, workers):
    parts = partition_graph(gemm_plan.graph, workers)
    assert len(parts.assignment) == len(gemm_plan.graph)
    assert all(0 <= p < workers for p in parts.assignment)
    assert sum(parts.counts()) == len(gemm_plan.graph)


def test_chunk_partition_is_contiguous_by_chunk(gemm_plan):
    parts = partition_graph(gemm_plan.graph, 2)
    chunk_part = {}
    for node in gemm_plan.graph.nodes:
        part = parts.part_of(node.node_id)
        # Every node of one chunk lands in one partition...
        assert chunk_part.setdefault(node.chunk_index, part) == part
    # ...and partition indices are non-decreasing over chunk order.
    ordered = [chunk_part[c] for c in sorted(chunk_part)]
    assert ordered == sorted(ordered)
    assert set(ordered) == {0, 1}


def test_chain_edges_never_cross_partitions(gemm_plan):
    for workers in (2, 3, 4):
        parts = partition_graph(gemm_plan.graph, workers)
        assert all(e.kind != CHAIN for e in parts.boundary), (
            "a chunk's stage chain was split across partitions")


def test_boundary_edges_match_assignment(gemm_plan):
    parts = partition_graph(gemm_plan.graph, 2)
    assert parts.boundary, "2-way split of a multi-chunk level must cross"
    for e in parts.boundary:
        assert e.src_part == parts.part_of(e.src)
        assert e.dst_part == parts.part_of(e.dst)
        assert e.src_part != e.dst_part
    stats = parts.stats()
    assert stats["boundary_edges"] == len(parts.boundary)
    assert sum(stats["boundary_by_kind"].values()) == len(parts.boundary)


def test_more_workers_than_chunks_degrades_gracefully(gemm_plan):
    chunks = {n.chunk_index for n in gemm_plan.graph.nodes}
    workers = len(chunks) + 3
    parts = partition_graph(gemm_plan.graph, workers)
    assert sum(parts.counts()) == len(gemm_plan.graph)
    # No chunk is split; trailing partitions may simply be empty.
    assert sum(1 for c in parts.counts() if c) <= len(chunks)


def test_partition_is_deterministic(gemm_plan):
    a = partition_graph(gemm_plan.graph, 3)
    b = partition_graph(gemm_plan.graph, 3)
    assert a.assignment == b.assignment
    assert a.boundary == b.boundary


def test_shipment_bytes_only_for_payload_stages(gemm_plan):
    graph = gemm_plan.graph
    by_kind = {}
    for node in graph.nodes:
        by_kind.setdefault(node.kind, node)
    for kind, node in by_kind.items():
        nbytes = shipment_bytes(gemm_plan, node)
        if kind in ("move_up", "combine"):
            assert nbytes > 0, f"{kind} shipment lost its payload"
        else:
            assert nbytes == 0, f"{kind} crossing must be control-only"


def test_partition_rejects_bad_arguments(gemm_plan):
    with pytest.raises(SchedulerError, match="workers"):
        partition_graph(gemm_plan.graph, 0)
