"""Graph executors: the pluggable drains of a lowered level.

Section III-C: "We also support task queues to keep track of the
progress of data movement for individual chunks ... This enables
multi-stage data transfer and better parallelism.  Whenever the space of
lower memory levels is freed, more chunks can be scheduled for
movement."

The per-level task queue is the lowered graph itself
(:class:`~repro.plan.lower.LevelPlan`): each chunk's five node states
say whether it is queued, moving, resident, computed or done
(:meth:`~repro.plan.lower.LevelPlan.state_counts`), and its
``window`` edges bound how many chunks hold buffers at once.  Every
edge, the ``buffer`` hazards included, exists before the first node
runs, so a node that became ready stays ready until it is dispatched.
The **schedulers** here choose the dispatch order.
:class:`InOrderScheduler` lowers each level and replays the graph
depth-first in program order; :class:`PipelinedScheduler` dispatches
ready nodes by stage priority, overlapping chunk k+1's ``move_down``
with chunk k's ``compute`` whenever the edges allow.  The graph-free
driver they replaced and a seeded random-topological-order executor
live in ``tests/reference`` as the equivalence suites' oracles.
"""

from __future__ import annotations

import heapq

from repro.errors import SchedulerError


# -- graph executors ---------------------------------------------------------

class Scheduler:
    """Base of the pluggable level executors.

    ``execute_level`` lowers one non-leaf recursion level into a
    :class:`~repro.plan.lower.LevelPlan` and drains it; subclasses
    choose the dispatch order (:meth:`_drain`) and the in-flight window
    (:meth:`level_window`).  Leaf levels never reach a scheduler -- the
    driver computes them directly.  Both are generators stepped by
    ``NorthupProgram.steps()``: the schedulers here never yield, the
    serve layer's cooperative one does at every grant.

    Set ``keep_plans=True`` to retain every drained plan on
    :attr:`plans` (``describe --plan`` and the graph-aware analyses
    read them back).
    """

    def __init__(self, *, keep_plans: bool = False) -> None:
        self.keep_plans = keep_plans
        self.plans: list = []

    def level_window(self, program, ctx, chunks: list) -> int:
        """In-flight chunk cap for this level (1 = fully serial)."""
        return 1

    def execute_level(self, program, ctx):
        from repro.plan.lower import lower_level

        plan = lower_level(
            program, ctx,
            window=lambda chunks: self.level_window(program, ctx, chunks))
        if self.keep_plans:
            self.plans.append(plan)
        try:
            yield from self._drain(plan)
            plan.finish()
            # Level boundary: pending compute-backend work for the
            # level's chunks (async kernel merges, deferred copies)
            # settles here, so a parent level starts from materialised
            # bytes and the pending ledger stays bounded.  Lazy fills
            # nothing has read wait for a reader or their slab's
            # release (the cache teardown in end_run).  This is a
            # wall-clock sync point only -- virtual time was already
            # charged at dispatch.
            ctx.system.drain_exec()
        finally:
            plan.close()

    def _drain(self, plan):
        raise NotImplementedError


class InOrderScheduler(Scheduler):
    """Replay the lowered graph depth-first in recorded program order.

    This is the default executor: by the lowering contract
    (:mod:`repro.plan.lower`) the replay performs exactly the timeline
    charges the graph-free chunk loop (``tests/reference/eager.py``)
    performs, in the same order, so makespans and result bytes are
    bit-identical to it -- the property the equivalence suite pins
    down on every fig6-fig11 configuration.
    """

    def _drain(self, plan):
        return plan.run_in_order()


class PipelinedScheduler(Scheduler):
    """Overlap chunk k+1's ``move_down`` with chunk k's ``compute``.

    Ready nodes are dispatched by stage priority (setup, then
    move_down, then compute, then move_up/combine; ties by chunk
    index), so transfers are *issued* ahead of the stages that retire
    earlier chunks.  On a shared half-duplex channel that issue order
    is what the timeline's backfill cannot recover by itself: the eager
    order books ``move_up(k)`` before ``move_down(k+1)`` exists, and
    when the idle gap between them is shorter than the down transfer,
    chunk k+1 serialises behind traffic it does not depend on.

    How far ahead the pipeline may run is the program's call --
    :meth:`~repro.core.program.NorthupProgram.pipeline_window` declares
    how many chunks may hold buffers at once (the level's memory
    budget, and an independence assertion for everything outside the
    buffer-hazard edges).  Each node enters the heap once, when its
    last predecessor finishes, and is dispatched as popped.
    """

    def level_window(self, program, ctx, chunks: list) -> int:
        return max(1, program.pipeline_window(ctx, chunks))

    def _drain(self, plan):
        from repro.plan.graph import STAGE_RANK

        graph = plan.graph
        heap = [(STAGE_RANK[n.kind], n.chunk_index, n.node_id)
                for n in graph.ready()]
        heapq.heapify(heap)
        while heap:
            _rank, _chunk, nid = heapq.heappop(heap)
            node = graph.nodes[nid]
            yield from plan.execute(node)
            for succ_id in node.succs:
                succ = graph.nodes[succ_id]
                if graph.is_ready(succ):
                    heapq.heappush(
                        heap,
                        (STAGE_RANK[succ.kind], succ.chunk_index, succ_id))
        if not graph.complete:
            raise SchedulerError(
                f"pipelined drain stalled: {graph.remaining} of "
                f"{len(graph)} nodes unreachable (dependency cycle?)")
