"""Partitioning a lowered task graph across distributed workers.

The distributed runner (:mod:`repro.dist`) shards one level's
:class:`~repro.plan.graph.TaskGraph` into N partitions -- one per
worker process -- and realises edges that cross a partition boundary as
message-passing shipments over the modeled network level
(:class:`~repro.memory.network.NetworkChannel`).  This module is the
*static* half of that: deciding which node belongs to which partition,
and planning which edges become boundary shipments.

Two strategies, matching ROADMAP item 1's "one worker per subtree of
the device topology, or per chunk range":

* ``chunk`` -- contiguous chunk-index ranges, balanced by node weight
  (falling back to node count when the lowering recorded no weights).
  Every node of a chunk lands in one partition, so the only
  cross-partition edges are the inter-chunk ones (``queue`` folds,
  ``buffer`` hazards, ``window`` caps) -- exactly the ``move_up`` /
  ``combine`` handoffs the network must carry.
* ``tree`` -- group chunks by the device subtree their child node
  belongs to (multi-branch topologies spreading chunks via
  ``select_child``), assigning distinct subtrees round-robin to
  workers.  When the level fans into a single subtree -- the common
  apu shape -- there is nothing to split by and the strategy falls
  back to ``chunk`` ranges.

Boundary edges recorded here are the *static* plan (``describe
--dist`` and the bench read them); ``buffer`` hazards are discovered
dynamically while the graph executes, so the runner re-checks each
node's live predecessor set at dispatch time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulerError
from repro.plan.graph import TaskGraph, TaskNode

PARTITION_STRATEGIES = ("chunk", "tree")


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
    strategy: str
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
            "strategy": self.strategy,
            "nodes_per_partition": self.counts(),
            "boundary_edges": len(self.boundary),
            "boundary_by_kind": by_kind,
        }


def _chunk_weights(graph: TaskGraph) -> dict[int, int]:
    """Total scheduling weight per chunk index (>= 1 each, so a level
    whose lowering recorded no weights still balances by node count)."""
    weights: dict[int, int] = {}
    for node in graph.nodes:
        weights[node.chunk_index] = \
            weights.get(node.chunk_index, 0) + max(0, node.weight)
    return {c: max(1, w) for c, w in weights.items()}


def _contiguous_ranges(chunks: list[int], weights: dict[int, int],
                       workers: int) -> dict[int, int]:
    """Split ``chunks`` (sorted) into ``workers`` contiguous ranges of
    roughly equal total weight; returns chunk -> partition.

    Deterministic greedy sweep: a range closes once the running total
    reaches the next ideal boundary, while always leaving at least one
    chunk for each remaining partition (no empty middle partitions when
    there are enough chunks to go around).
    """
    total = sum(weights[c] for c in chunks)
    assign: dict[int, int] = {}
    part = 0
    acc = 0.0
    remaining = len(chunks)
    for c in chunks:
        assign[c] = part
        acc += weights[c]
        remaining -= 1
        boundary = total * (part + 1) / workers
        must_close = remaining == (workers - 1 - part)
        if part < workers - 1 and (acc >= boundary or must_close) \
                and remaining > 0:
            part += 1
    return assign


def _chunk_partition(graph: TaskGraph, workers: int) -> list[int]:
    weights = _chunk_weights(graph)
    chunks = sorted(weights)
    by_chunk = _contiguous_ranges(chunks, weights, workers)
    return [by_chunk[n.chunk_index] for n in graph.nodes]


def _tree_partition(graph: TaskGraph, workers: int) -> list[int] | None:
    """Group chunks by the child subtree their stages target; ``None``
    when the level fans into fewer than two subtrees (nothing to split
    by -- the caller falls back to chunk ranges)."""
    subtree_of_chunk: dict[int, int] = {}
    for node in graph.nodes:
        # Combine nodes sit on the parent; any other stage names the
        # child subtree the chunk descends into.
        if node.kind != "combine" and node.chunk_index >= 0:
            subtree_of_chunk.setdefault(node.chunk_index, node.tree_node)
    distinct = sorted(set(subtree_of_chunk.values()))
    if len(distinct) < 2:
        return None
    part_of_subtree = {t: i % workers for i, t in enumerate(distinct)}
    return [part_of_subtree[subtree_of_chunk[n.chunk_index]]
            for n in graph.nodes]


def partition_graph(graph: TaskGraph, workers: int, *,
                    strategy: str = "chunk") -> Partitioning:
    """Assign every node of ``graph`` to one of ``workers`` partitions.

    Both strategies keep a chunk's whole stage chain (setup ->
    move_down -> compute -> move_up -> combine) inside one partition:
    ``chain`` edges never cross a boundary, so every shipment carries
    an inter-chunk dependency -- the deterministic fold order
    (``queue``), a buffer hazard (``buffer``) or an in-flight cap
    (``window``).
    """
    if strategy not in PARTITION_STRATEGIES:
        raise SchedulerError(
            f"unknown partition strategy {strategy!r}; known: "
            f"{PARTITION_STRATEGIES}")
    if workers < 1:
        raise SchedulerError(f"partition workers must be >= 1, got {workers}")
    if not graph.nodes:
        return Partitioning(workers=workers, strategy=strategy,
                            assignment=[])
    used = strategy
    assignment = None
    if strategy == "tree":
        assignment = _tree_partition(graph, workers)
        if assignment is None:
            used = "chunk"      # single-subtree level: fall back
    if assignment is None:
        assignment = _chunk_partition(graph, workers)
    parts = Partitioning(workers=workers, strategy=used,
                         assignment=assignment)
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
