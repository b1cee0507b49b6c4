"""Lowering: record one level of the Listing-3 recursion as a graph.

:func:`lower_level` performs the *control* half of what the eager
driver used to do inline -- open the level's ``divide`` span,
decompose, enqueue, and hand the level's fetch hints to the read-ahead
and the cache -- and then, instead of executing the per-chunk steps,
records them as :class:`~repro.plan.graph.TaskNode` thunks wired with
explicit dependency edges.  The steps themselves are derived from the
windows the program declares for each chunk
(:meth:`~repro.core.program.NorthupProgram.access`) by
:class:`LevelWindows`, which the graph-free oracle runs too.  The
returned :class:`LevelPlan` is what a scheduler executes, and it is the
level's task queue (Section III-C, Listing 1's ``work_queue``): it is
anchored at its tree node (``TreeNode.plan``) and each chunk's progress
state is read off its nodes' states (:meth:`LevelPlan.state_counts`).

Lowering is *lazy and hierarchical* (the HPVM shape): a ``compute``
node for a non-leaf child does not expand the child level up front --
its thunk steps ``program.recurse(child_ctx)``, which lowers and drains
the nested level when (and only when) the node is dispatched.  This is
forced by the programming model, not a shortcut: a child level's
windows are over the child buffers its parent chunk staged, so its
``decompose`` cannot run until that chunk is staged.

The lowering contract (what makes in-order replay bit-identical to the
old eager driver):

* every timeline charge the eager driver made is made here in the same
  order -- the level prologue charges during lowering, the per-chunk
  charges inside node thunks;
* node thunks run the derived steps, wrapped in the same observability
  spans;
* hoisted work (``select_child``, ``access``, graph construction) is
  charge-free and side-effect-free on the system;
* ``graph.nodes`` is the eager execution order, so replaying it
  depth-first *is* the eager schedule.

Every edge is added here, before any node runs.  ``buffer`` edges come
from the declared windows too: a chunk's setup buffer can share bytes
with an earlier chunk's only through a ring slot, a carried window or
an overlapping mapped view (a fresh ``alloc`` aliases nothing), so
chunk k's ``move_down`` waits for the ``combine`` of the latest such
chunk inside the window (:meth:`LevelWindows.hazard`).
"""

from __future__ import annotations

from typing import Any

from repro.cache.spec import FetchSpec
from repro.core.program import CACHED, READ, UPDATE, WRITE
from repro.errors import SchedulerError
from repro.plan.graph import (BUFFER, CHAIN, COMBINE, COMPUTE, MOVE_DOWN,
                              MOVE_UP, QUEUE, SETUP, WINDOW, TaskGraph,
                              TaskNode)


#: A chunk's progress state once each stage has finished, latest stage
#: first; a chunk none of whose stages finished is ``queued``.
_PROGRESS = ((COMBINE, "done"), (COMPUTE, "computed"),
             (MOVE_DOWN, "resident"), (SETUP, "moving"))
CHUNK_STATES = ("queued", "moving", "resident", "computed", "done")


class _ChunkRecord:
    """One chunk: its child, its declared windows and the lifecycle
    state its steps share."""

    __slots__ = ("chunk", "child", "windows", "prev", "ring_slot",
                 "carried_in", "carried_out", "extents", "bufs", "child_ctx",
                 "handles", "nodes")

    def __init__(self, chunk: Any, child, windows: tuple) -> None:
        self.chunk = chunk
        self.child = child
        self.windows = windows
        #: The previous chunk on the same child (carries hand over).
        self.prev: _ChunkRecord | None = None
        #: How many earlier chunks of the level went to the same child.
        self.ring_slot = 0
        self.carried_in: frozenset = frozenset()
        self.carried_out: frozenset = frozenset()
        #: Window name -> ``(slab, lo, hi)``: the bytes its setup buffer
        #: may share with another chunk's (see :meth:`LevelWindows.hazard`).
        self.extents: dict = {}
        self.bufs: dict = {}
        self.child_ctx = None
        self.handles: list | None = None
        self.nodes: dict[str, TaskNode] = {}


def _same_window(a, b) -> bool:
    return a.name == b.name and a.parent is b.parent and a[2:6] == b[2:6]


def _is_view(rec: _ChunkRecord, w) -> bool:
    """A window over a buffer already on the chunk's child is mapped,
    never moved."""
    return w.parent.node_id == rec.child.node_id


class LevelWindows:
    """A level's declared chunk windows and the buffer lifecycle derived
    from them: the steps both the lowered graph's thunks and the
    graph-free oracle (``tests/reference/eager.py``) run per chunk.

    Construction is charge-free: it asks ``select_child`` and ``access``
    once per chunk, links each chunk to the previous one on the same
    child (a ``write``/``update`` window both declare is *carried*:
    neither moved up, released, allocated nor moved down in between),
    and sizes each ring by the level's largest window of its name.  It
    also records where each chunk's buffers live (:meth:`hazard`).
    """

    def __init__(self, program, ctx, chunks: list) -> None:
        self.program = program
        self.ctx = ctx
        self.records: list[_ChunkRecord] = []
        self.ring_bytes: dict[str, int] = {}
        #: child node id -> ring sets (window name -> buffer), in the
        #: order the children first took a chunk.
        self.rings: dict[int, list[dict]] = {}
        last: dict[int, _ChunkRecord] = {}
        #: child node id -> ring depth, fixed by its first ring chunk.
        depth: dict[int, int] = {}
        for chunk in chunks:
            child = program.select_child(ctx, chunk)
            if child.parent is not ctx.node:
                raise SchedulerError(
                    f"select_child returned node {child.node_id}, not a "
                    f"child of {ctx.node.node_id}")
            rec = _ChunkRecord(chunk, child, tuple(program.access(ctx, chunk)))
            prev = last.get(child.node_id)
            if prev is not None:
                rec.prev = prev
                rec.ring_slot = prev.ring_slot + 1
                rec.carried_in = prev.carried_out = frozenset(
                    w.name for w in rec.windows
                    if w.mode in (WRITE, UPDATE) and not w.ring
                    and any(_same_window(w, p) for p in prev.windows))
            last[child.node_id] = rec
            for w in rec.windows:
                if w.ring:
                    self.ring_bytes[w.name] = max(
                        self.ring_bytes.get(w.name, 0), w.nbytes)
                    depth.setdefault(child.node_id, max(
                        v.ring for v in rec.windows))
            rec.extents = _extents(rec, depth.get(child.node_id))
            self.records.append(rec)

    def hazard(self, k: int, window: int) -> int | None:
        """The most recent chunk j, ``k - window < j < k``, one of whose
        setup buffers shares bytes with one of chunk k's, or None.

        Chunk k's setup waits for ``combine(k - window)`` and combines
        run in order, so only those chunks can still hold their buffers
        when k sets up, and an edge from the latest one orders the rest.
        """
        mine = self.records[k].extents.values()
        for j in range(k - 1, max(k - window, -1), -1):
            for slab, lo, hi in self.records[j].extents.values():
                if any(s == slab and l < hi and lo < h for s, l, h in mine):
                    return j
        return None

    def hints(self) -> list[tuple]:
        """Every ``read`` and ``cached`` window as ``(child, FetchSpec)``
        in program order (the default prefetch hints)."""
        return [(rec.child, FetchSpec(w.parent, w.offset, w.rows,
                                      w.row_bytes, w.stride))
                for rec in self.records for w in rec.windows
                if w.mode in (READ, CACHED) and w.nbytes
                and not _is_view(rec, w)]

    def setup(self, rec: _ChunkRecord) -> None:
        """Give every window but the ``cached`` ones a child buffer, in
        declaration order, and spawn the child context."""
        system, child = self.ctx.system, rec.child
        bufs = rec.bufs
        for w in rec.windows:
            if w.ring:
                sets = self.rings.get(child.node_id) or self._ring(rec)
                bufs[w.name] = sets[rec.ring_slot % len(sets)][w.name]
            elif w.name in rec.carried_in:
                bufs[w.name] = rec.prev.bufs[w.name]
            elif _is_view(rec, w):
                bufs[w.name] = system.map_region(w.parent, w.offset,
                                                 w.nbytes, label=w.name)
            elif w.mode != CACHED:
                bufs[w.name] = system.alloc(max(1, w.nbytes), child,
                                            label=w.name)
        rec.handles = list(bufs.values())
        rec.child_ctx = self.ctx.descend(child, chunk=rec.chunk, payload=bufs)

    def _ring(self, rec: _ChunkRecord) -> list[dict]:
        """Allocate the child's whole ring at its first chunk: as many
        sets of the ring windows as the deepest ring declared."""
        named = [w for w in rec.windows if w.ring]
        sets = self.rings[rec.child.node_id] = [
            {w.name: self.ctx.system.alloc(self.ring_bytes[w.name],
                                           rec.child, label=w.name)
             for w in named}
            for _ in range(max(w.ring for w in named))]
        return sets

    def move_down(self, rec: _ChunkRecord) -> None:
        """Lease the ``cached`` windows, move the ``read``/``update``
        ones down, then build the child problem."""
        system, bufs = self.ctx.system, rec.bufs
        for w in rec.windows:
            if w.mode == CACHED:
                bufs[w.name] = system.fetch_down(
                    rec.child, w.parent, rows=w.rows, row_bytes=w.row_bytes,
                    src_offset=w.offset, src_stride=w.stride,
                    label=f"{w.name} down")
            elif w.mode in (READ, UPDATE) and _moves(rec, w) \
                    and w.name not in rec.carried_in:
                if w.rows == 1 and w.stride == w.row_bytes:
                    system.move_down(bufs[w.name], w.parent, w.nbytes,
                                     src_offset=w.offset,
                                     label=f"{w.name} down")
                else:
                    system.move_2d(bufs[w.name], w.parent, rows=w.rows,
                                   row_bytes=w.row_bytes,
                                   src_offset=w.offset, src_stride=w.stride,
                                   dst_offset=0, dst_stride=w.row_bytes,
                                   label=f"{w.name} down")
        rec.child_ctx.payload = self.program.child_problem(
            self.ctx, rec.chunk, bufs)

    def move_up(self, rec: _ChunkRecord) -> None:
        """Move the ``write``/``update`` windows up, except those the
        next chunk on the child carries on."""
        system, bufs = self.ctx.system, rec.bufs
        for w in rec.windows:
            if w.mode in (WRITE, UPDATE) and _moves(rec, w) \
                    and w.name not in rec.carried_out:
                if w.rows == 1 and w.stride == w.row_bytes:
                    system.move_up(w.parent, bufs[w.name], w.nbytes,
                                   dst_offset=w.offset, label=f"{w.name} up")
                else:
                    system.move_2d(w.parent, bufs[w.name], rows=w.rows,
                                   row_bytes=w.row_bytes, src_offset=0,
                                   src_stride=w.row_bytes,
                                   dst_offset=w.offset, dst_stride=w.stride,
                                   label=f"{w.name} up")

    def release(self, rec: _ChunkRecord) -> None:
        """End the chunk's leases and release its buffers: views first,
        then the rest in declaration order; ring buffers and carried
        windows stay."""
        system, bufs = self.ctx.system, rec.bufs
        for w in rec.windows:
            if _is_view(rec, w) and w.name not in rec.carried_out:
                system.release(bufs[w.name])
        for w in rec.windows:
            if w.mode == CACHED:
                system.fetch_release(bufs[w.name])
            elif not (w.ring or w.name in rec.carried_out
                      or _is_view(rec, w)):
                system.release(bufs[w.name])

    def release_rings(self) -> None:
        """Release every ring, child by child, set by set."""
        for sets in self.rings.values():
            for bufs in sets:
                for handle in bufs.values():
                    self.ctx.system.release(handle)
        self.rings.clear()


def _extents(rec: _ChunkRecord, depth: int | None) -> dict:
    """Where :meth:`LevelWindows.setup` will put each window, in its own
    order of precedence: a ring set's buffer, the previous chunk's
    carried buffer, a mapped view's byte range of its allocation, or a
    fresh allocation that only a later carry can share."""
    extents = {}
    for w in rec.windows:
        if w.ring:
            extents[w.name] = (("ring", rec.child.node_id,
                                rec.ring_slot % depth, w.name), 0, 1)
        elif w.name in rec.carried_in:
            extents[w.name] = rec.prev.extents[w.name]
        elif _is_view(rec, w):
            lo = w.parent.base_offset + w.offset
            extents[w.name] = ((w.parent.node_id, w.parent.alloc_id),
                               lo, lo + w.nbytes)
        elif w.mode != CACHED:
            extents[w.name] = (("alloc", id(rec), w.name), 0, 1)
    return extents


def _moves(rec: _ChunkRecord, w) -> bool:
    """Neither an empty window nor a view ever moves."""
    return w.nbytes > 0 and not _is_view(rec, w)


class LevelPlan:
    """One lowered level: the graph plus its execution envelope.

    A scheduler drains ``plan.graph`` (dispatching nodes through
    :meth:`execute`, which stamps the trace-interval window and span id
    onto each node), then calls :meth:`finish` on success and
    :meth:`close` unconditionally -- mirroring the eager driver's
    ``after_level`` inside ``try`` and span close in ``finally``.
    :meth:`execute` and :meth:`run_in_order` are generators: a
    ``compute`` node's nested level may suspend at a grant point.
    """

    def __init__(self, program, ctx, graph: TaskGraph, divide_span,
                 windows: LevelWindows) -> None:
        self.program = program
        self.ctx = ctx
        self.graph = graph
        self.divide_span = divide_span
        self.windows = windows
        self.records = windows.records
        #: Chunks whose transfers a prefetch plan covers (all or none).
        self.prefetch_planned = 0

    def state_counts(self) -> dict[str, int]:
        """``state -> chunk count`` over :data:`CHUNK_STATES`: a chunk
        is ``moving`` once its setup finished, then ``resident``,
        ``computed`` and ``done`` as its move_down, compute and combine
        finish (the ``level_queue_state`` metrics gauges)."""
        counts = dict.fromkeys(CHUNK_STATES, 0)
        for rec in self.records:
            nodes = rec.nodes
            state = next((state for kind, state in _PROGRESS
                          if nodes[kind].executed), "queued")
            counts[state] += 1
        return counts

    def execute(self, node: TaskNode):
        """Dispatch one node: dependency check, thunk, bookkeeping."""
        graph = self.graph
        graph.mark_running(node)
        trace = self.ctx.system.timeline.trace
        node.first_interval = len(trace)
        try:
            nested = node.thunk()
            if nested is not None:
                yield from nested
        finally:
            node.end_interval = len(trace)
        graph.mark_done(node)

    def run_in_order(self):
        """Replay the graph in recorded (eager) program order."""
        for node in self.graph.nodes:
            yield from self.execute(node)

    def finish(self) -> None:
        """The level epilogue (only on success, like the eager driver):
        the program's ``after_level``, then the rings go."""
        if not self.graph.complete:
            raise SchedulerError(
                f"level at node {self.graph.tree_node} finished with "
                f"{self.graph.remaining} unexecuted task(s)")
        self.program.after_level(self.ctx)
        self.windows.release_rings()

    def close(self) -> None:
        """Close the level's divide span (always, error or not)."""
        self.ctx.system.obs.close(self.divide_span)


def lower_level(program, ctx, *, window=1) -> LevelPlan:
    """Lower one non-leaf recursion level into a :class:`LevelPlan`.

    ``window`` caps how many chunks may hold buffers simultaneously
    (``window`` edges: chunk k's ``setup`` waits for chunk k-window's
    ``combine``).  1 keeps chunks fully serial -- the eager memory
    footprint; schedulers that overlap ask the program via
    :meth:`~repro.core.program.NorthupProgram.pipeline_window`.  A
    callable ``window`` is invoked with the decomposed chunk list
    (window policies usually depend on how many chunks a level has).
    """
    system = ctx.system
    obs = system.obs
    divide_span = obs.open("divide", node_id=ctx.node.node_id)
    try:
        chunks = list(program.decompose(ctx))
        system.charge_runtime(len(chunks), label="enqueue tasks")
        divide_span.annotate("chunks", len(chunks))
        # Which compute backend the level's kernels dispatch through
        # (plan inspection / trace analysis reads it off the span).
        divide_span.annotate("exec_backend", system.executor.name)

        graph = TaskGraph(level=ctx.node.level, tree_node=ctx.node.node_id)
        if callable(window):
            window = window(chunks)
        if window < 1:
            raise SchedulerError(f"pipeline window must be >= 1, got {window}")
        graph.meta["window"] = window
        windows = LevelWindows(program, ctx, chunks)
        records = windows.records
        plan = LevelPlan(program, ctx, graph, divide_span, windows)
        ctx.node.plan = plan

        for index, rec in enumerate(records):
            label = repr(rec.chunk)
            child_id = rec.child.node_id
            setup = graph.add_node(SETUP, chunk_index=index,
                                   tree_node=child_id, label=label)
            move_down = graph.add_node(MOVE_DOWN, chunk_index=index,
                                       tree_node=child_id, label=label)
            compute = graph.add_node(COMPUTE, chunk_index=index,
                                     tree_node=child_id, label=label)
            move_up = graph.add_node(MOVE_UP, chunk_index=index,
                                     tree_node=child_id, label=label)
            combine = graph.add_node(COMBINE, chunk_index=index,
                                     tree_node=ctx.node.node_id, label=label)
            rec.nodes = {SETUP: setup, MOVE_DOWN: move_down,
                         COMPUTE: compute, MOVE_UP: move_up,
                         COMBINE: combine}
            graph.add_edge(setup, move_down, CHAIN)
            graph.add_edge(move_down, compute, CHAIN)
            graph.add_edge(compute, move_up, CHAIN)
            graph.add_edge(move_up, combine, CHAIN)
            if index:
                prev = records[index - 1].nodes
                # Queue order: setups rotate shared rings / allocate in
                # a deterministic order; combines fold deterministically.
                graph.add_edge(prev[SETUP], setup, QUEUE)
                graph.add_edge(prev[COMBINE], combine, QUEUE)
            if index >= window:
                graph.add_edge(records[index - window].nodes[COMBINE],
                               setup, WINDOW)
            aliased = windows.hazard(index, window)
            if aliased is not None:
                graph.add_edge(records[aliased].nodes[COMBINE], move_down,
                               BUFFER)
            _install_thunks(plan, rec)

        # The hints are collected once per level, whatever the cache
        # mode.  They feed the physical read-ahead (wall-clock only,
        # nothing charged) and, with the cache in full mode, the
        # prefetch engine, which cross-checks them against the
        # move_down targets of the graph they ride on.
        hints = program.prefetch_hints(ctx, windows.hints())
        if hints is not None:
            hints = list(hints)
            system.will_need(hints)
            if system.cache.transparent:
                graph.meta["prefetch_hints"] = hints
                planned = system.cache.engine.plan_from_graph(ctx.node,
                                                              graph)
                if planned:
                    system.charge_runtime(1, label="prefetch plan")
                    plan.prefetch_planned = len(chunks)
                    divide_span.annotate("prefetch_planned", planned)
        return plan
    except BaseException:
        # The caller never sees the plan, so the span closes here.
        obs.close(divide_span)
        raise


def _install_thunks(plan: LevelPlan, rec: _ChunkRecord) -> None:
    """Install the five executable bodies for one chunk.

    Each thunk but ``compute`` is one derived step of
    :class:`LevelWindows` (the one the graph-free oracle runs inline)
    wrapped in a span named for its node, at the node's tree node.
    """
    obs, windows, nodes = plan.ctx.system.obs, plan.windows, rec.nodes
    for kind, step in ((SETUP, windows.setup), (MOVE_DOWN, windows.move_down),
                       (MOVE_UP, windows.move_up), (COMBINE, windows.release)):
        nodes[kind].thunk = _spanned(obs, nodes[kind], step, rec)

    def compute_thunk():
        # The first span recurse opens (leaf "compute" or nested
        # "divide") is this node's span: 1:1 node <-> span mapping.
        next_span = len(obs.spans) if obs.enabled else None
        yield from plan.program.recurse(rec.child_ctx)
        if next_span is not None and len(obs.spans) > next_span:
            nodes[COMPUTE].span_id = next_span

    nodes[COMPUTE].thunk = compute_thunk


def _spanned(obs, node: TaskNode, step, rec: _ChunkRecord):
    """A thunk running ``step(rec)`` inside a span named for ``node``."""
    def thunk() -> None:
        span = obs.open(node.kind, node_id=node.tree_node)
        try:
            step(rec)
        finally:
            obs.close(span)
        node.span_id = span.span_id
    return thunk
