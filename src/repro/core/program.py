"""The recursive algorithm template (paper Listing 3).

A :class:`NorthupProgram` expresses an application as the paper's
``myfunction``: check for a leaf, otherwise decompose, set up buffers on
the next level, move each chunk down, spawn recursively, and move
results back up.  Applications do not write that lifecycle out: each
declares what a chunk reads and writes (:meth:`~NorthupProgram.access`,
a list of :class:`Window` objects over the level's buffers), and the
driver *lowers* each level into a task graph (:mod:`repro.plan`) whose
steps are derived from the windows -- Listing 3's ``data_down`` is the
``read``/``cached``/``update`` windows moved down, its ``data_up`` the
``write``/``update`` windows moved up, and the child buffers are
allocated before and released after.  A pluggable scheduler
(:mod:`repro.core.scheduler`) executes the graph -- pass one via
``program.run(system, scheduler=...)``.

There is one execution path and it is *resumable*: ``steps()`` is a
generator delegating through ``recurse`` -> ``Scheduler.execute_level``
-> ``_drain`` -> a compute node's nested level, suspended only where a
scheduler yields (the serve layer's, at every task-graph node); ``run()``
drives it to exhaustion.  ``steps`` is the one driver for every app:
it opens the run's root span, runs :meth:`~NorthupProgram.phases`
between ``before_run`` and ``after_run``, and always ends the run.  Apps
with their own phase loops (sort's merge, HotSpot's passes, SpMV's
sweeps) override ``phases``, whose default is one recursion.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, NamedTuple

from repro.core.buffers import BufferHandle
from repro.core.context import ExecutionContext, root_context
from repro.core.system import System
from repro.topology.node import TreeNode

#: Window modes: ``read`` is moved down, ``cached`` is a
#: :meth:`~repro.core.system.System.fetch_down` lease, ``write`` is
#: moved up, ``update`` is moved down and up.
READ, CACHED, WRITE, UPDATE = "read", "cached", "write", "update"


class Window(NamedTuple):
    """One window of a buffer a chunk touches: ``rows`` runs of
    ``row_bytes`` every ``stride`` bytes from ``offset`` of ``parent``
    (the tuple :func:`~repro.core.decomposition.window2d` returns), in
    one of the four modes.

    The child buffer for it is named ``name``.  ``ring`` > 0 puts it in
    a per-child ring of that depth instead of a per-chunk buffer (a
    pipeline's buffer sets).  A window over a buffer that already lives
    on the child is a mapped view of it: nothing moves.
    """

    name: str
    parent: BufferHandle
    offset: int
    rows: int
    row_bytes: int
    stride: int
    mode: str = READ
    ring: int = 0

    @classmethod
    def span(cls, name: str, parent: BufferHandle, offset: int,
             nbytes: int, mode: str = READ) -> "Window":
        """The one-row window of ``nbytes`` at ``offset``."""
        return cls(name, parent, offset, 1, nbytes, nbytes, mode)

    @property
    def nbytes(self) -> int:
        return self.rows * self.row_bytes


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
    * :meth:`access` -- the windows a chunk reads and writes;
    * :meth:`child_problem` -- the child level's payload, built from the
      chunk's child buffers (default: the buffers by window name);
    * :meth:`compute_task` -- leaf computation;
    * optionally :meth:`select_child` (defaults to the first child,
      Listing 3's ``get_children_list()[0]``).

    The per-chunk lifecycle is derived from the windows
    (:class:`repro.plan.lower.LevelWindows`): every window gets a child
    buffer at setup -- allocated, taken from its ring, mapped, or
    carried over -- and ``read``/``update`` windows are moved down,
    ``cached`` windows leased with ``fetch_down``, ``write``/``update``
    windows moved up, and the buffers released once the chunk is done.
    A ``write``/``update`` window that the next chunk on the same child
    declares again stays resident in between (GEMM's C block carried
    across its k loop).
    """

    # -- hooks -------------------------------------------------------------

    @abstractmethod
    def decompose(self, ctx: ExecutionContext) -> Iterable[Any]:
        """Chunk descriptors for this level (Listing 3's (m, n) loop)."""

    def access(self, ctx: ExecutionContext, chunk: Any) -> Iterable[Window]:
        """The chunk's windows, in the order their buffers are set up,
        moved and released.  Called once per chunk while the level is
        lowered, so it must be charge-free.  Default: none."""
        return ()

    def child_problem(self, ctx: ExecutionContext, chunk: Any,
                      bufs: dict[str, BufferHandle]) -> Any:
        """The child context's payload, built once the chunk's windows
        have moved down; ``bufs`` maps window names to child buffers.
        Default: ``bufs`` itself."""
        return bufs

    @abstractmethod
    def compute_task(self, ctx: ExecutionContext) -> None:
        """Leaf computation on the processor(s) at ``ctx.node``."""

    def select_child(self, ctx: ExecutionContext, chunk: Any) -> TreeNode:
        """Which child receives this chunk.  Default: the first child.

        Multi-branch trees (Figure 2's node 3 with children 6 and 7) can
        override this to spread chunks across subtrees.
        """
        return ctx.first_child()

    def prefetch_hints(self, ctx: ExecutionContext,
                       hints: list[tuple]) -> Iterable[tuple] | None:
        """This level's upcoming parent->child region fetches.

        ``hints`` are derived from the windows: every ``read`` and
        ``cached`` window as a ``(child_node, FetchSpec)`` pair, in
        program order; return them (the default), a different list, or
        None for no hints.  The lowering pass asks once per level,
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
        return hints

    def pipeline_window(self, ctx: ExecutionContext,
                        chunks: list[Any]) -> int:
        """How many chunks of this level may hold buffers at once.

        The :class:`~repro.core.scheduler.PipelinedScheduler` asks this
        before overlapping chunks: returning W > 1 declares that (a)
        the level's buffer budget accommodates W chunks in flight and
        (b) chunks are independent apart from the buffer overlaps the
        lowering pass can see in their child buffers.  The default,
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

    def phases(self, ctx: ExecutionContext):
        """The program's body between :meth:`before_run` and
        :meth:`after_run`, as a stepping generator.  Default: one
        recursion from the root (Listing 3's single call of
        ``myfunction``)."""
        yield from self.recurse(ctx)

    def after_level(self, ctx: ExecutionContext) -> None:
        """Called after a level finishes its chunk loop, before its
        rings are released (Reduce combines its partials here)."""

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
            yield from self.phases(ctx)
            self.after_run(ctx)
        finally:
            # end_run's write-back flush intervals still attribute to
            # the root span, so the span is closed after cleanup; it
            # also settles pending executor work (deferred copies and
            # async kernel merges) before cache teardown.
            system.end_run()
            system.obs.close(root_span)
        return ctx
