"""Partitioning a lowered task graph across distributed workers.

The distributed runner (:mod:`repro.dist`) shards one level's
:class:`~repro.plan.graph.TaskGraph` into N partitions -- one per
worker process; the projection (:mod:`repro.dist.model`) charges edges
that cross a partition boundary as shipments over the modeled network
level (:class:`~repro.memory.network.NetworkChannel`).  This module is the
*static* half of that: deciding which node belongs to which partition,
and planning which edges become boundary shipments.

Partitions are contiguous chunk-index ranges of roughly equal chunk
count.  Every node of a chunk lands in one partition, so the only
cross-partition edges are the inter-chunk ones (``queue`` folds,
``buffer`` hazards, ``window`` caps) -- exactly the ``move_up`` /
``combine`` handoffs the network must carry.  Rows and span
annotations name this strategy ``"chunk"``.

A level's graph is complete once lowered, ``buffer`` hazards
included, so the boundary edges recorded here (``describe --dist`` and
the bench read them) are every edge that crosses a partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulerError
from repro.plan.graph import TaskGraph, TaskNode

@dataclass(frozen=True)
class BoundaryEdge:
    """One static graph edge whose endpoints landed in different
    partitions: a shipment the network level must carry."""

    src: int            # task-node id
    dst: int
    kind: str           # edge kind (chain/queue/buffer/window)
    src_part: int
    dst_part: int


@dataclass
class Partitioning:
    """The assignment of one task graph to N workers."""

    workers: int
    #: node_id -> partition index, dense over ``graph.nodes``.
    assignment: list[int]
    boundary: list[BoundaryEdge] = field(default_factory=list)

    def part_of(self, node_id: int) -> int:
        return self.assignment[node_id]

    def counts(self) -> list[int]:
        """Node count per partition."""
        out = [0] * self.workers
        for p in self.assignment:
            out[p] += 1
        return out

    def stats(self) -> dict:
        """Summary payload (``experiment run distributed_scaling``, bench
        JSON, span annotations)."""
        by_kind: dict[str, int] = {}
        for e in self.boundary:
            by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
        return {
            "workers": self.workers,
            "strategy": "chunk",
            "nodes_per_partition": self.counts(),
            "boundary_edges": len(self.boundary),
            "boundary_by_kind": by_kind,
        }


def _contiguous_ranges(chunks: list[int], workers: int) -> dict[int, int]:
    """Split ``chunks`` (sorted) into ``workers`` contiguous ranges of
    roughly equal length; returns chunk -> partition.

    Deterministic greedy sweep: a range closes once the running count
    reaches the next ideal boundary, while always leaving at least one
    chunk for each remaining partition (no empty middle partitions when
    there are enough chunks to go around).
    """
    total = len(chunks)
    assign: dict[int, int] = {}
    part = 0
    acc = 0.0
    remaining = len(chunks)
    for c in chunks:
        assign[c] = part
        acc += 1
        remaining -= 1
        boundary = total * (part + 1) / workers
        must_close = remaining == (workers - 1 - part)
        if part < workers - 1 and (acc >= boundary or must_close) \
                and remaining > 0:
            part += 1
    return assign


def partition_graph(graph: TaskGraph, workers: int) -> Partitioning:
    """Assign every node of ``graph`` to one of ``workers`` partitions.

    A chunk's whole stage chain (setup -> move_down -> compute ->
    move_up -> combine) stays inside one partition: ``chain`` edges
    never cross a boundary, so every shipment carries an inter-chunk
    dependency -- the deterministic fold order (``queue``), a buffer
    hazard (``buffer``) or an in-flight cap (``window``).
    """
    if workers < 1:
        raise SchedulerError(f"partition workers must be >= 1, got {workers}")
    by_chunk = _contiguous_ranges(
        sorted({n.chunk_index for n in graph.nodes}), workers)
    assignment = [by_chunk[n.chunk_index] for n in graph.nodes]
    parts = Partitioning(workers=workers, assignment=assignment)
    for src, dst, kind in graph.edges():
        sp, dp = assignment[src.node_id], assignment[dst.node_id]
        if sp != dp:
            parts.boundary.append(BoundaryEdge(
                src=src.node_id, dst=dst.node_id, kind=kind,
                src_part=sp, dst_part=dp))
    return parts


def shipment_bytes(plan, pred: TaskNode) -> int:
    """Payload bytes a cross-partition edge out of ``pred`` ships.

    ``move_up``/``combine`` sources carry the predecessor chunk's
    payload (its result bytes crossing toward the consumer's
    partition); earlier stages only release ordering, so their
    crossings are zero-byte control messages (a task grant /
    completion ack -- latency and per-message cost only).  Resolved at
    execution time because a chunk's handles exist only once its
    ``setup`` thunk has run.
    """
    if pred.kind not in ("move_up", "combine"):
        return 0
    if pred.chunk_index < 0 or pred.chunk_index >= len(plan.records):
        return 0
    handles = plan.records[pred.chunk_index].handles
    if not handles:
        return 0
    return int(sum(h.nbytes for h in handles))
