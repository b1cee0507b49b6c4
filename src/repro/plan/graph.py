"""The task-graph IR: typed nodes and explicit dependency edges.

Section III-C's task queues "keep track of the progress of data
movement ... enabling multi-stage data transfer and better parallelism";
HPVM (PAPERS.md) argues the right substrate for such scheduling
decisions is a hierarchical dataflow graph.  This module is that
substrate for the Listing-3 recursion: one level of the recursion
lowers (:mod:`repro.plan.lower`) into a :class:`TaskGraph` of typed
:class:`TaskNode`\\ s --

* ``setup``      -- allocate child buffers, descend the context;
* ``move_down``  -- stage the chunk's inputs onto the child;
* ``compute``    -- leaf kernel, or a whole nested level;
* ``move_up``    -- return the chunk's results to the parent;
* ``combine``    -- release/fold the chunk's buffers --

connected by explicit edges.  Each edge carries a *kind* naming why the
order matters:

* ``chain``  -- the per-chunk stage pipeline (setup -> move_down ->
  compute -> move_up -> combine);
* ``queue``  -- queue order between chunks (setups rotate shared buffer
  pools in order, combines fold deterministically);
* ``buffer`` -- a buffer hazard: the destination chunk overwrites or
  reads bytes a predecessor chunk still owns (WAR/RAW across chunks,
  detected from payload handle windows at lowering time);
* ``window`` -- an in-flight capacity cap: at most W chunks may hold
  buffers simultaneously (the level's memory budget).

Executors (:mod:`repro.core.scheduler`) consume the graph through
:meth:`TaskGraph.ready` / :meth:`TaskGraph.mark_done`: any dispatch
order that respects the edges computes the same result bytes, because
the edges encode every cross-chunk data dependency the eager driver
satisfied implicitly by running in program order.

The graph is pure bookkeeping: building and walking it charges nothing
to the timeline.  Node execution thunks (installed by lowering) do all
the charging when a scheduler invokes them.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from typing import Any, Callable, Iterable

from repro.errors import SchedulerError

# -- node kinds (the vocabulary of Listing 3, matching span kinds) ----------
SETUP = "setup"
MOVE_DOWN = "move_down"
COMPUTE = "compute"
MOVE_UP = "move_up"
COMBINE = "combine"

NODE_KINDS = (SETUP, MOVE_DOWN, COMPUTE, MOVE_UP, COMBINE)

#: Dispatch priority of each stage when several nodes are ready.  Stages
#: that *unlock* future chunks run first: ``combine`` is cheap
#: bookkeeping whose completion releases window/buffer edges, so ranking
#: it ahead of ``move_up`` lets chunk k+1's ``setup``/``move_down`` be
#: issued before chunk k's ``move_up`` books the shared channel -- the
#: issue order that keeps a half-duplex channel saturated.
STAGE_RANK = {SETUP: 0, COMBINE: 1, MOVE_DOWN: 2, COMPUTE: 3, MOVE_UP: 4}

# -- edge kinds --------------------------------------------------------------
CHAIN = "chain"
QUEUE = "queue"
BUFFER = "buffer"
WINDOW = "window"

EDGE_KINDS = (CHAIN, QUEUE, BUFFER, WINDOW)

# -- node states -------------------------------------------------------------
PENDING = "pending"
RUNNING = "running"
DONE = "done"


class TaskNode:
    """One typed operation of a lowered level.

    Identity and dependencies live here; the executable body is the
    ``thunk`` a lowering pass installs (a zero-argument callable that
    performs the hook calls and timeline charges).  ``span_id`` and the
    trace-interval window ``(first_interval, end_interval)`` are filled
    in at execution time, giving the 1:1 span <-> node mapping the
    observability layer reads.
    """

    __slots__ = ("node_id", "kind", "chunk_index", "level", "tree_node",
                 "label", "thunk", "preds", "succs", "unmet", "state",
                 "span_id", "first_interval", "end_interval", "meta",
                 "weight")

    def __init__(self, node_id: int, kind: str, *, chunk_index: int = -1,
                 level: int = -1, tree_node: int = -1, label: str = "",
                 weight: int = 0) -> None:
        if kind not in NODE_KINDS:
            raise SchedulerError(
                f"unknown task-node kind {kind!r}; expected one of "
                f"{NODE_KINDS}")
        self.node_id = node_id
        self.kind = kind
        self.chunk_index = chunk_index
        self.level = level
        self.tree_node = tree_node
        self.label = label
        #: Scheduling weight (e.g. cells for stealing policies).
        self.weight = weight
        #: Zero-argument body; may return an iterator of scheduling
        #: steps (a ``compute`` node draining a nested level).
        self.thunk: Callable[[], Any] | None = None
        #: Predecessor/successor node ids, with the edge kind per pair.
        self.preds: dict[int, str] = {}
        self.succs: dict[int, str] = {}
        #: Predecessors not yet done (maintained by the graph).
        self.unmet = 0
        self.state = PENDING
        self.span_id: int | None = None
        self.first_interval: int | None = None
        self.end_interval: int | None = None
        #: Free-form lowering annotations (prefetch specs, handle keys).
        self.meta: dict[str, Any] = {}

    @property
    def executed(self) -> bool:
        return self.state == DONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TaskNode(#{self.node_id} {self.kind}"
                f" chunk={self.chunk_index} level={self.level})")


class TaskGraph:
    """A DAG of :class:`TaskNode`\\ s for one lowered level.

    Nodes are appended in *program order* (the order the eager driver
    would have executed them), so ``graph.nodes`` is always a valid
    topological order -- the :class:`~repro.core.scheduler
    .InOrderScheduler` replays it directly.  Dynamic executors instead
    drain the graph through :meth:`ready` / :meth:`mark_done`.

    The ready frontier is incremental: a node counts its unfinished
    predecessors (``unmet``) and ``_ready`` holds the sorted ids of
    pending nodes with none.  ``mark_done`` inserts the successors it
    unblocks and a late ``add_edge`` from an unfinished source retracts
    its target, so :meth:`is_ready` is O(1) and a grant O(log frontier).
    """

    def __init__(self, *, level: int = -1, tree_node: int = -1) -> None:
        self.level = level
        self.tree_node = tree_node
        self.nodes: list[TaskNode] = []
        #: Level-wide lowering annotations (prefetch hints, window size).
        self.meta: dict[str, Any] = {}
        self._edges = 0
        self._done = 0
        self._ready: list[int] = []

    # -- construction ------------------------------------------------------

    def add_node(self, kind: str, *, chunk_index: int = -1,
                 tree_node: int = -1, label: str = "",
                 weight: int = 0) -> TaskNode:
        node = TaskNode(len(self.nodes), kind, chunk_index=chunk_index,
                        level=self.level, tree_node=tree_node, label=label,
                        weight=weight)
        self.nodes.append(node)
        self._ready.append(node.node_id)    # ids only grow: stays sorted
        return node

    def add_edge(self, src: TaskNode, dst: TaskNode,
                 kind: str = CHAIN) -> bool:
        """Add ``src -> dst``; returns False when the edge (any kind)
        already exists or would be a self-loop.

        Edges may be added while the graph is executing -- lowering
        discovers ``buffer`` hazards only once a chunk's payload
        handles exist -- but only toward nodes that have not started
        (adding a predecessor to a running/done node is a scheduler
        bug and raises).
        """
        if kind not in EDGE_KINDS:
            raise SchedulerError(
                f"unknown edge kind {kind!r}; expected one of {EDGE_KINDS}")
        if src is dst or dst.node_id in src.succs:
            return False
        if dst.state != PENDING:
            raise SchedulerError(
                f"cannot add {kind} edge into {dst!r}: it already "
                f"{dst.state}")
        src.succs[dst.node_id] = kind
        dst.preds[src.node_id] = kind
        self._edges += 1
        if src.state != DONE:
            if not dst.unmet:               # was dispatchable: retract it
                del self._ready[bisect_left(self._ready, dst.node_id)]
            dst.unmet += 1
        return True

    # -- execution bookkeeping ---------------------------------------------

    def is_ready(self, node: TaskNode) -> bool:
        """Every predecessor executed, and the node not yet started."""
        return node.state == PENDING and not node.unmet

    def ready(self) -> list[TaskNode]:
        """All dispatchable nodes, in program order."""
        nodes = self.nodes
        return [nodes[i] for i in self._ready]

    def mark_running(self, node: TaskNode) -> None:
        if not self.is_ready(node):
            raise SchedulerError(
                f"{node!r} dispatched before its dependencies completed")
        node.state = RUNNING
        del self._ready[bisect_left(self._ready, node.node_id)]

    def mark_done(self, node: TaskNode) -> None:
        if node.state != RUNNING:
            raise SchedulerError(f"{node!r} finished without being dispatched")
        node.state = DONE
        self._done += 1
        nodes = self.nodes
        for succ_id in node.succs:
            succ = nodes[succ_id]
            succ.unmet -= 1
            if not succ.unmet:
                insort(self._ready, succ_id)

    @property
    def complete(self) -> bool:
        return self._done == len(self.nodes)

    @property
    def remaining(self) -> int:
        return len(self.nodes) - self._done

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return self._edges

    def edges(self) -> Iterable[tuple[TaskNode, TaskNode, str]]:
        """Every ``(src, dst, kind)`` triple, in source program order."""
        for src in self.nodes:
            for dst_id, kind in src.succs.items():
                yield src, self.nodes[dst_id], kind

    def by_kind(self) -> dict[str, int]:
        """Node count per kind (only kinds present)."""
        return dict(Counter(n.kind for n in self.nodes))

    def edges_by_kind(self) -> dict[str, int]:
        return dict(Counter(kind for _s, _d, kind in self.edges()))

    def critical_depth(self) -> int:
        """Length (in nodes) of the longest dependency chain.

        Static structure only -- no durations.  Because ``nodes`` is a
        topological order, one forward sweep suffices.
        """
        if not self.nodes:
            return 0
        depth = [1] * len(self.nodes)
        for node in self.nodes:
            for p in node.preds:
                if depth[p] + 1 > depth[node.node_id]:
                    depth[node.node_id] = depth[p] + 1
        return max(depth)

    def stats(self) -> dict:
        """Summary used by ``describe --plan`` and the docs."""
        return {
            "level": self.level,
            "tree_node": self.tree_node,
            "nodes": len(self.nodes),
            "by_kind": self.by_kind(),
            "edges": self.edge_count,
            "edges_by_kind": self.edges_by_kind(),
            "critical_depth": self.critical_depth(),
        }

    def validate_topological(self, order: Iterable[TaskNode]) -> None:
        """Raise unless ``order`` visits every node after its preds."""
        seen: set[int] = set()
        count = 0
        for node in order:
            for p in node.preds:
                if p not in seen:
                    raise SchedulerError(
                        f"{node!r} ordered before its predecessor "
                        f"#{p} ({self.nodes[p].kind})")
            seen.add(node.node_id)
            count += 1
        if count != len(self.nodes):
            raise SchedulerError(
                f"order visits {count} of {len(self.nodes)} nodes")


def overlapping_handles(a: Iterable, b: Iterable) -> bool:
    """True when any handle window in ``a`` shares bytes with one in ``b``.

    Handles are compared by device allocation -- ``(node_id, alloc_id)``
    -- and byte window ``[base_offset, base_offset + nbytes)``, so two
    mapped windows of one allocation (Reduce's per-chunk partial slots)
    only collide when their ranges actually intersect.
    """
    windows: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for h in a:
        windows.setdefault((h.node_id, h.alloc_id), []).append(
            (h.base_offset, h.base_offset + h.nbytes))
    for h in b:
        for lo, hi in windows.get((h.node_id, h.alloc_id), ()):
            if h.base_offset < hi and lo < h.base_offset + h.nbytes:
                return True
    return False


def collect_handles(payload: Any, out: list | None = None) -> list:
    """Every :class:`~repro.core.buffers.BufferHandle` reachable inside
    ``payload``, recursing through dicts, lists and tuples.

    Shared by the default ``teardown_buffers`` (so nested payload
    containers release correctly) and by the lowering pass's buffer-
    hazard detection.
    """
    from repro.core.buffers import BufferHandle

    if out is None:
        out = []
    if isinstance(payload, BufferHandle):
        out.append(payload)
    elif isinstance(payload, dict):
        for value in payload.values():
            collect_handles(value, out)
    elif isinstance(payload, (list, tuple)):
        for value in payload:
            collect_handles(value, out)
    return out
