"""Per-level task tracking, transfer pipelining, and graph executors.

Section III-C: "We also support task queues to keep track of the
progress of data movement for individual chunks ... This enables
multi-stage data transfer and better parallelism.  Whenever the space of
lower memory levels is freed, more chunks can be scheduled for
movement."

Four pieces implement that here:

* :class:`LevelQueue` -- a bookkeeping queue of chunk tasks per memory
  level, recording state transitions (queued -> moving -> resident ->
  computed -> written-back).  Its counters feed the runtime-overhead
  measurement and are exported as metrics gauges.
* :class:`BufferPool` -- N interchangeable buffer *sets* on a node.
  Acquiring sets round-robin bounds pipelining depth in *virtual time*:
  a buffer may only be overwritten after its last reader finished
  (tracked on the handle).
* The **schedulers** -- pluggable executors of the lowered task graph
  (:mod:`repro.plan`).  :class:`InOrderScheduler` lowers each level
  and replays the graph depth-first in program order;
  :class:`PipelinedScheduler` dispatches ready nodes by stage priority,
  overlapping chunk k+1's ``move_down`` with chunk k's ``compute``
  whenever the edges allow.  The graph-free driver they replaced and a
  seeded random-topological-order executor live in ``tests/reference``
  as the equivalence suites' oracles.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.buffers import BufferHandle
from repro.core.system import System
from repro.errors import SchedulerError
from repro.topology.node import TreeNode


class TaskState(enum.Enum):
    QUEUED = "queued"
    MOVING = "moving"
    RESIDENT = "resident"
    COMPUTED = "computed"
    DONE = "done"


_ORDER = [TaskState.QUEUED, TaskState.MOVING, TaskState.RESIDENT,
          TaskState.COMPUTED, TaskState.DONE]


@dataclass
class ChunkTask:
    """Progress record of one chunk at one level."""

    chunk: Any
    state: TaskState = TaskState.QUEUED
    #: The chunk's transfers are covered by a prefetch plan (the level's
    #: program supplied hints to the cache's prefetch engine).
    prefetched: bool = False

    def advance(self, to: TaskState) -> None:
        if _ORDER.index(to) <= _ORDER.index(self.state):
            raise SchedulerError(
                f"task for {self.chunk!r} cannot go {self.state.value} -> "
                f"{to.value}")
        self.state = to

    def mark_prefetched(self) -> None:
        self.prefetched = True


@dataclass
class LevelQueue:
    """Task queue for one memory level (per-memory-level queue of
    Section III-C).  Given n chunks at level i, n tasks are enqueued."""

    level: int
    tasks: list[ChunkTask] = field(default_factory=list)

    def enqueue(self, chunk: Any) -> ChunkTask:
        task = ChunkTask(chunk=chunk)
        self.tasks.append(task)
        return task

    def count(self, state: TaskState) -> int:
        return sum(1 for t in self.tasks if t.state is state)

    @property
    def all_done(self) -> bool:
        return all(t.state is TaskState.DONE for t in self.tasks)

    @property
    def prefetch_planned(self) -> int:
        return sum(1 for t in self.tasks if t.prefetched)

    def state_counts(self) -> dict[str, int]:
        """``state name -> task count`` over every tracked state (the
        payload of the ``level_queue_state`` metrics gauges)."""
        counts = dict.fromkeys((s.value for s in _ORDER), 0)
        for t in self.tasks:
            counts[t.state.value] += 1
        return counts

    def progress(self) -> str:
        return (f"L{self.level}: " + " ".join(
            f"{s.value}={self.count(s)}" for s in _ORDER))


@dataclass
class BufferPool:
    """N interchangeable buffer sets on one node.

    ``factory(set_index)`` allocates one set (a dict of named handles).
    With ``depth >= 2``, consecutive chunks land in different sets, so
    the load of chunk ``k+1`` overlaps the compute of chunk ``k`` --
    the paper's multi-stage transfer, expressed as buffer reuse.
    """

    system: System
    node: TreeNode
    depth: int
    factory: Callable[[int], dict[str, BufferHandle]]
    _sets: list[dict[str, BufferHandle]] = field(default_factory=list)
    _next: int = 0

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise SchedulerError(f"pipeline depth must be >= 1, got {self.depth}")
        for i in range(self.depth):
            made = self.factory(i)
            if not isinstance(made, dict) or not all(
                    isinstance(v, BufferHandle) for v in made.values()):
                raise SchedulerError(
                    "BufferPool factory must return a dict of BufferHandles")
            self._sets.append(made)

    def acquire(self) -> dict[str, BufferHandle]:
        """The next buffer set in round-robin order."""
        s = self._sets[self._next % self.depth]
        self._next += 1
        self.system.metrics.counter(
            "buffer_pool_acquires", labels={"node": str(self.node.node_id)},
            help_text="pipelined buffer-set rotations")
        return s

    def release_all(self) -> None:
        for made in self._sets:
            for handle in made.values():
                if not handle.released:
                    self.system.release(handle)
        self._sets.clear()

    def __enter__(self) -> "BufferPool":
        return self

    def __exit__(self, *exc) -> None:
        self.release_all()


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
            # bytes and the pending ledger stays bounded.  This is a
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
    buffer-hazard edges).
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
            # A buffer edge discovered after this entry was pushed can
            # retract readiness; the node re-enters the heap when the
            # late predecessor completes.
            if not graph.is_ready(node):
                continue
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
