"""The recursive algorithm template (paper Listing 3).

A :class:`NorthupProgram` expresses an application as the paper's
``myfunction``: check for a leaf, otherwise decompose, set up buffers on
the next level, move each chunk down, spawn recursively, and move
results back up.  Applications implement the hooks; the driver *lowers*
each level into a task graph (:mod:`repro.plan`) and hands it to a
pluggable scheduler (:mod:`repro.core.scheduler`) -- pass one via
``program.run(system, scheduler=...)``.

There is one execution path and it is *resumable*: ``steps()`` is a
generator delegating through ``recurse`` -> ``Scheduler.execute_level``
-> ``_drain`` -> a compute node's nested level, suspended only where a
scheduler yields (the serve layer's, at every task-graph node); ``run()``
drives it to exhaustion.  Apps with their own phase loops (sort's merge,
HotSpot's passes, SpMV's sweeps) override ``steps``, not ``run``.

The hooks intentionally mirror Listing 3's helper names
(``compute_task``, ``setup_buffers``, ``data_down``, ``data_up``) so a
reader can put the paper and an app module side by side.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable

from repro.core.context import ExecutionContext, root_context
from repro.core.system import System
from repro.topology.node import TreeNode


def drive(steps):
    """Run a stepping generator to exhaustion; returns its value.
    Nothing is sent at a yield: a cooperative scheduler rejects that."""
    try:
        while True:
            next(steps)
    except StopIteration as done:
        return done.value


class NorthupProgram(ABC):
    """Base class for divide-and-conquer Northup applications.

    Subclasses implement:

    * :meth:`decompose` -- yield chunk descriptors for the current level
      (anything hashable/printable; apps use tiles, row ranges, shards);
    * :meth:`setup_buffers` -- allocate next-level buffers for a chunk
      and return the payload handed to the child context;
    * :meth:`data_down` -- move the chunk's data to the child node;
    * :meth:`compute_task` -- leaf computation;
    * :meth:`data_up` -- move results back to the parent;
    * optionally :meth:`teardown_buffers` (defaults to releasing every
      handle in a payload dict) and :meth:`select_child` (defaults to
      the first child, Listing 3's ``get_children_list()[0]``).
    """

    # -- hooks -------------------------------------------------------------

    @abstractmethod
    def decompose(self, ctx: ExecutionContext) -> Iterable[Any]:
        """Chunk descriptors for this level (Listing 3's (m, n) loop)."""

    @abstractmethod
    def setup_buffers(self, ctx: ExecutionContext, child: TreeNode,
                      chunk: Any) -> Any:
        """Allocate child-level buffers; returns the child payload."""

    @abstractmethod
    def data_down(self, ctx: ExecutionContext, child_ctx: ExecutionContext,
                  chunk: Any) -> None:
        """Move the chunk's inputs from ``ctx.node`` to the child."""

    @abstractmethod
    def compute_task(self, ctx: ExecutionContext) -> None:
        """Leaf computation on the processor(s) at ``ctx.node``."""

    @abstractmethod
    def data_up(self, ctx: ExecutionContext, child_ctx: ExecutionContext,
                chunk: Any) -> None:
        """Move the chunk's results from the child back to ``ctx.node``."""

    def select_child(self, ctx: ExecutionContext, chunk: Any) -> TreeNode:
        """Which child receives this chunk.  Default: the first child.

        Multi-branch trees (Figure 2's node 3 with children 6 and 7) can
        override this to spread chunks across subtrees.
        """
        return ctx.first_child()

    def teardown_buffers(self, ctx: ExecutionContext,
                         child_ctx: ExecutionContext, chunk: Any) -> None:
        """Release the chunk's child-level buffers.

        Default: release every :class:`BufferHandle` reachable in the
        payload, recursing through nested dicts, lists and tuples (a
        dict-of-dict payload releases just like a flat one).  Apps that
        cache buffers across chunks (the GEMM row-shard reuse) override
        this.
        """
        from repro.plan.graph import collect_handles

        for h in collect_handles(child_ctx.payload):
            if not h.released:
                ctx.system.release(h)

    def prefetch_hints(self, ctx: ExecutionContext,
                       chunks: list[Any]) -> Iterable[tuple] | None:
        """Optional: this level's upcoming parent->child region fetches.

        Return ``(child_node, FetchSpec)`` pairs in program order (build
        the specs with :class:`repro.cache.spec.FetchSpec`, describing
        regions exactly as the ``data_down`` moves will), or None (the
        default) for no hints.  The lowering pass asks once per level,
        whatever the cache mode, and hands the list to two consumers:

        * :meth:`System.will_need`: physical read-ahead.  A file-backed
          source reads the next windows on a side thread while this
          chunk computes.  Wall-clock only; virtual time, traces and
          results are unchanged.
        * with the cache in "full" mode, the prefetch engine's
          lookahead fetches and the Belady oracle's future-distance
          ranking (modeled prefetching is a transparent-cache feature).

        A hint that no move follows is harmless to both.
        """
        return None

    def pipeline_window(self, ctx: ExecutionContext,
                        chunks: list[Any]) -> int:
        """How many chunks of this level may hold buffers at once.

        The :class:`~repro.core.scheduler.PipelinedScheduler` asks this
        before overlapping chunks: returning W > 1 declares that (a)
        the level's buffer budget accommodates W chunks in flight and
        (b) chunks are independent apart from the buffer overlaps the
        lowering pass can see in their payload handles.  The default,
        1, keeps every level serial -- the eager memory footprint and
        ordering.  Apps that already provision double buffers
        (per-chunk allocation budgeted for two copies) override this to
        match that depth.
        """
        return 1

    # -- optional lifecycle hooks -------------------------------------------

    def before_run(self, ctx: ExecutionContext) -> None:
        """Called once at the root before recursion starts."""

    def after_run(self, ctx: ExecutionContext) -> None:
        """Called once at the root after recursion completes."""

    def after_level(self, ctx: ExecutionContext) -> None:
        """Called after a level finishes its chunk loop.

        Apps that cache buffers across chunks (the GEMM row-shard reuse
        of Section IV-A) release the stragglers here."""

    # -- the driver (Listing 3's myfunction) ----------------------------------

    #: Executor installed by :meth:`run` (class default so programs
    #: whose custom ``run`` predates the plan layer still resolve one).
    _scheduler = None

    def scheduler(self):
        """The active level executor (installing the default
        :class:`~repro.core.scheduler.InOrderScheduler` on first use)."""
        if self._scheduler is None:
            from repro.core.scheduler import InOrderScheduler
            self._scheduler = InOrderScheduler()
        return self._scheduler

    def recurse(self, ctx: ExecutionContext):
        """One recursion level: compute at a leaf, otherwise lower the
        level into a task graph and step the active scheduler through it.

        Each level anchors its :class:`~repro.plan.lower.LevelPlan` at
        its tree node (``TreeNode.plan``, Listing 1's ``work_queue``):
        given n chunks, the plan holds n chunk chains whose node states
        read as queued -> moving -> resident -> computed -> done as
        each chunk progresses (Section III-C's progress tracking).  How the chunks *execute*
        -- strictly in order, pipelined, randomised -- is the
        scheduler's choice (:mod:`repro.core.scheduler`); what they
        compute is pinned by the graph's dependency edges
        (:mod:`repro.plan`).
        """
        obs = ctx.system.obs
        if ctx.is_leaf:
            leaf_span = obs.open("compute", node_id=ctx.node.node_id)
            leaf_span.annotate("backend", ctx.system.executor.name)
            try:
                self.compute_task(ctx)
            finally:
                obs.close(leaf_span)
            return
        yield from self.scheduler().execute_level(self, ctx)

    def run(self, system: System, *, scheduler=None) -> ExecutionContext:
        """Execute the program from the tree root; returns the root
        context (whose payload typically holds the result handles).

        ``scheduler`` selects the level executor (default: the
        graph-replaying :class:`~repro.core.scheduler.InOrderScheduler`,
        bit-identical to the historical eager driver).
        """
        return drive(self.steps(system, scheduler=scheduler))

    def steps(self, system: System, *, scheduler=None):
        """The program as a resumable iterator; returns the root context.
        Yields what the scheduler yields and resumes with what the
        stepper sends; closing it mid-run unwinds every ``finally``.

        Always ends with cache cleanup (leases dropped, write-back IOUs
        settled, unpinned blocks released), so a program finishes with
        the same live-buffer census it would have had without caching.
        """
        self._scheduler = scheduler
        ctx = root_context(system)
        root_span = system.obs.open("run", label=type(self).__name__,
                                    node_id=ctx.node.node_id)
        try:
            self.before_run(ctx)
            yield from self.recurse(ctx)
            self.after_run(ctx)
        finally:
            # end_run's write-back flush intervals still attribute to
            # the root span, so the span is closed after cleanup; it
            # also settles pending executor work (deferred copies and
            # async kernel merges) before cache teardown.
            system.end_run()
            system.obs.close(root_span)
        return ctx
