"""Lowering: record one level of the Listing-3 recursion as a graph.

:func:`lower_level` performs the *control* half of what the eager
driver used to do inline -- open the level's ``divide`` span,
decompose, enqueue, and hand the program's fetch hints to the
read-ahead and the cache -- and then, instead of executing the
per-chunk hooks, records them as :class:`~repro.plan.graph.TaskNode`
thunks wired with explicit dependency edges.  The returned
:class:`LevelPlan` is what a scheduler executes, and it is the level's
task queue (Section III-C, Listing 1's ``work_queue``): it is anchored
at its tree node (``TreeNode.plan``) and each chunk's progress state
is read off its nodes' states (:meth:`LevelPlan.state_counts`).

Lowering is *lazy and hierarchical* (the HPVM shape): a ``compute``
node for a non-leaf child does not expand the child level up front --
its thunk steps ``program.recurse(child_ctx)``, which lowers and drains
the nested level when (and only when) the node is dispatched.  This is
forced by the programming model, not a shortcut: every app materialises
the child payload inside ``data_down``/``setup_buffers``, so a child
level's ``decompose`` cannot run until its parent chunk is staged.

The lowering contract (what makes in-order replay bit-identical to the
old eager driver):

* every timeline charge the eager driver made is made here in the same
  order -- the level prologue charges during lowering, the per-chunk
  charges inside node thunks;
* node thunks contain the hook calls verbatim, wrapped in the same
  observability spans;
* hoisted work (``select_child``, graph construction) is charge-free
  and side-effect-free on the system;
* ``graph.nodes`` is the eager execution order, so replaying it
  depth-first *is* the eager schedule.

Buffer-hazard edges are discovered dynamically: only once chunk k's
``setup`` thunk has produced its payload do we know which byte windows
it owns, so the thunk compares them against every still-in-flight
earlier chunk and adds ``buffer`` edges (earlier combine -> this
move_down) before its own ``move_down`` can be dispatched.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SchedulerError
from repro.plan.graph import (BUFFER, CHAIN, COMBINE, COMPUTE, MOVE_DOWN,
                              MOVE_UP, QUEUE, SETUP, WINDOW, TaskGraph,
                              TaskNode, collect_handles, overlapping_handles)


#: A chunk's progress state once each stage has finished, latest stage
#: first; a chunk none of whose stages finished is ``queued``.
_PROGRESS = ((COMBINE, "done"), (COMPUTE, "computed"),
             (MOVE_DOWN, "resident"), (SETUP, "moving"))
CHUNK_STATES = ("queued", "moving", "resident", "computed", "done")


class _ChunkRecord:
    """Execution-time state of one chunk shared by its five thunks."""

    __slots__ = ("chunk", "child", "child_ctx", "handles", "nodes")

    def __init__(self, chunk: Any, child) -> None:
        self.chunk = chunk
        self.child = child
        self.child_ctx = None
        self.handles: list | None = None
        self.nodes: dict[str, TaskNode] = {}


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
                 records: list[_ChunkRecord]) -> None:
        self.program = program
        self.ctx = ctx
        self.graph = graph
        self.divide_span = divide_span
        self.records = records
        #: Chunks whose transfers a prefetch plan covers (all or none).
        self.prefetch_planned = 0
        #: Chunks whose setup produced buffers and whose combine has not
        #: run: the only ones a later chunk can have a hazard with.
        self.holding: list[_ChunkRecord] = []

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
        """The level epilogue (only on success, like the eager driver)."""
        if not self.graph.complete:
            raise SchedulerError(
                f"level at node {self.graph.tree_node} finished with "
                f"{self.graph.remaining} unexecuted task(s)")
        self.program.after_level(self.ctx)

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
        records: list[_ChunkRecord] = []
        plan = LevelPlan(program, ctx, graph, divide_span, records)
        ctx.node.plan = plan

        for index, chunk in enumerate(chunks):
            child = program.select_child(ctx, chunk)
            if child.parent is not ctx.node:
                raise SchedulerError(
                    f"select_child returned node {child.node_id}, not a "
                    f"child of {ctx.node.node_id}")
            rec = _ChunkRecord(chunk, child)
            records.append(rec)
            label = repr(chunk)
            setup = graph.add_node(SETUP, chunk_index=index,
                                   tree_node=child.node_id, label=label)
            move_down = graph.add_node(MOVE_DOWN, chunk_index=index,
                                       tree_node=child.node_id, label=label)
            compute = graph.add_node(COMPUTE, chunk_index=index,
                                     tree_node=child.node_id, label=label)
            move_up = graph.add_node(MOVE_UP, chunk_index=index,
                                     tree_node=child.node_id, label=label)
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
                # Queue order: setups rotate shared pools / allocate in
                # a deterministic order; combines fold deterministically.
                graph.add_edge(prev[SETUP], setup, QUEUE)
                graph.add_edge(prev[COMBINE], combine, QUEUE)
            if index >= window:
                graph.add_edge(records[index - window].nodes[COMBINE],
                               setup, WINDOW)
            _install_thunks(plan, rec)

        # The program's hints are collected once per level, whatever the
        # cache mode.  They feed the physical read-ahead (wall-clock
        # only, nothing charged) and, with the cache in full mode, the
        # prefetch engine, which cross-checks them against the
        # move_down targets of the graph they ride on.
        hints = program.prefetch_hints(ctx, chunks)
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

    Each thunk is the corresponding slice of the old eager loop --
    identical hook calls and spans, and therefore identical timeline
    charges.
    """
    program, ctx = plan.program, plan.ctx
    obs = ctx.system.obs
    graph = plan.graph

    nodes = rec.nodes
    child = rec.child

    def setup_thunk() -> None:
        span = obs.open("setup", node_id=child.node_id)
        try:
            payload = program.setup_buffers(ctx, child, rec.chunk)
            rec.child_ctx = ctx.descend(child, chunk=rec.chunk,
                                        payload=payload)
        finally:
            obs.close(span)
        nodes[SETUP].span_id = span.span_id
        # Buffer hazards: this chunk's windows vs every earlier chunk
        # still holding buffers.  Physical byte movement is eager at
        # dispatch, so an overlap means our move_down must wait for the
        # earlier chunk to finish with those bytes (its combine).
        rec.handles = collect_handles(payload)
        if rec.handles:
            # Setups run in chunk order (queue edges), so `holding` is
            # the earlier chunks, in order, minus those that combined.
            holding = [earlier for earlier in plan.holding
                       if not earlier.nodes[COMBINE].executed]
            for earlier in holding:
                if overlapping_handles(earlier.handles, rec.handles):
                    graph.add_edge(earlier.nodes[COMBINE], nodes[MOVE_DOWN],
                                   BUFFER)
            holding.append(rec)
            plan.holding = holding

    def move_down_thunk() -> None:
        span = obs.open("move_down", node_id=child.node_id)
        try:
            program.data_down(ctx, rec.child_ctx, rec.chunk)
        finally:
            obs.close(span)
        nodes[MOVE_DOWN].span_id = span.span_id

    def compute_thunk():
        # The first span recurse opens (leaf "compute" or nested
        # "divide") is this node's span: 1:1 node <-> span mapping.
        next_span = len(obs.spans) if obs.enabled else None
        yield from program.recurse(rec.child_ctx)
        if next_span is not None and len(obs.spans) > next_span:
            nodes[COMPUTE].span_id = next_span

    def move_up_thunk() -> None:
        span = obs.open("move_up", node_id=child.node_id)
        try:
            program.data_up(ctx, rec.child_ctx, rec.chunk)
        finally:
            obs.close(span)
        nodes[MOVE_UP].span_id = span.span_id

    def combine_thunk() -> None:
        span = obs.open("combine", node_id=ctx.node.node_id)
        try:
            program.teardown_buffers(ctx, rec.child_ctx, rec.chunk)
        finally:
            obs.close(span)
        nodes[COMBINE].span_id = span.span_id

    nodes[SETUP].thunk = setup_thunk
    nodes[MOVE_DOWN].thunk = move_down_thunk
    nodes[COMPUTE].thunk = compute_thunk
    nodes[MOVE_UP].thunk = move_up_thunk
    nodes[COMBINE].thunk = combine_thunk
