"""The graph-free chunk-loop driver, the lowering contract's oracle.

Moved from ``repro.core.scheduler``: it is how
``NorthupProgram.recurse`` executed a level before the plan/execute
split, and the scheduler-equivalence suites compare every lowered
schedule against it bit for bit.  It makes every charge a lowered
level makes; per-chunk progress states belong to the lowered graph
(``LevelPlan.state_counts``), so it keeps none.
"""

from repro.core.scheduler import Scheduler
from repro.errors import SchedulerError


class EagerScheduler(Scheduler):
    """The historical inline driver, kept as the bit-identity reference.

    Executes each level's chunk loop directly -- no graph, no plan --
    exactly as ``NorthupProgram.recurse`` did before the plan/execute
    split.  The scheduler-equivalence suite runs every app under this
    and under :class:`InOrderScheduler` and asserts identical makespans
    and result bytes.
    """

    def execute_level(self, program, ctx):
        obs = ctx.system.obs
        divide_span = obs.open("divide", node_id=ctx.node.node_id)
        try:
            chunks = list(program.decompose(ctx))
            ctx.system.charge_runtime(len(chunks), label="enqueue tasks")
            divide_span.annotate("chunks", len(chunks))
            divide_span.annotate("exec_backend", ctx.system.executor.name)
            if ctx.system.cache.transparent:
                hints = program.prefetch_hints(ctx, chunks)
                if hints is not None:
                    planned = ctx.system.cache.engine.plan_level(ctx.node,
                                                                 hints)
                    if planned:
                        ctx.system.charge_runtime(1, label="prefetch plan")
                        divide_span.annotate("prefetch_planned", planned)
            for chunk in chunks:
                child = program.select_child(ctx, chunk)
                if child.parent is not ctx.node:
                    raise SchedulerError(
                        f"select_child returned node {child.node_id}, not a "
                        f"child of {ctx.node.node_id}")
                span = obs.open("setup", node_id=child.node_id)
                try:
                    payload = program.setup_buffers(ctx, child, chunk)
                    child_ctx = ctx.descend(child, chunk=chunk,
                                            payload=payload)
                finally:
                    obs.close(span)
                span = obs.open("move_down", node_id=child.node_id)
                try:
                    program.data_down(ctx, child_ctx, chunk)
                finally:
                    obs.close(span)
                yield from program.recurse(child_ctx)
                span = obs.open("move_up", node_id=child.node_id)
                try:
                    program.data_up(ctx, child_ctx, chunk)
                finally:
                    obs.close(span)
                span = obs.open("combine", node_id=ctx.node.node_id)
                try:
                    program.teardown_buffers(ctx, child_ctx, chunk)
                finally:
                    obs.close(span)
            program.after_level(ctx)
            # Same level-boundary settle as the graph schedulers.
            ctx.system.drain_exec()
        finally:
            obs.close(divide_span)
