"""The graph-free chunk-loop driver, the lowering contract's oracle.

Moved from ``repro.core.scheduler``: it is how
``NorthupProgram.recurse`` executed a level before the plan/execute
split, and the scheduler-equivalence suites compare every lowered
schedule against it bit for bit.  It makes every charge a lowered
level makes; per-chunk progress states belong to the lowered graph
(``LevelPlan.state_counts``), so it keeps none.
"""

from repro.core.scheduler import Scheduler
from repro.plan.lower import LevelWindows


class EagerScheduler(Scheduler):
    """The historical inline driver, kept as the bit-identity reference.

    Executes each level's chunk loop directly -- no graph, no plan --
    exactly as ``NorthupProgram.recurse`` did before the plan/execute
    split.  The scheduler-equivalence suite runs every app under this
    and under :class:`InOrderScheduler` and asserts identical makespans
    and result bytes.  Its per-chunk steps are the lowered graph's:
    :class:`~repro.plan.lower.LevelWindows` derives both from the
    program's declared windows.
    """

    def execute_level(self, program, ctx):
        obs = ctx.system.obs
        divide_span = obs.open("divide", node_id=ctx.node.node_id)
        try:
            chunks = list(program.decompose(ctx))
            ctx.system.charge_runtime(len(chunks), label="enqueue tasks")
            divide_span.annotate("chunks", len(chunks))
            divide_span.annotate("exec_backend", ctx.system.executor.name)
            windows = LevelWindows(program, ctx, chunks)
            if ctx.system.cache.transparent:
                hints = program.prefetch_hints(ctx, windows.hints())
                if hints is not None:
                    planned = ctx.system.cache.engine.plan_level(ctx.node,
                                                                 hints)
                    if planned:
                        ctx.system.charge_runtime(1, label="prefetch plan")
                        divide_span.annotate("prefetch_planned", planned)
            for rec in windows.records:
                node_id = rec.child.node_id
                for kind, step in (("setup", windows.setup),
                                   ("move_down", windows.move_down)):
                    span = obs.open(kind, node_id=node_id)
                    try:
                        step(rec)
                    finally:
                        obs.close(span)
                yield from program.recurse(rec.child_ctx)
                for kind, step, node_id in (
                        ("move_up", windows.move_up, node_id),
                        ("combine", windows.release, ctx.node.node_id)):
                    span = obs.open(kind, node_id=node_id)
                    try:
                        step(rec)
                    finally:
                        obs.close(span)
            program.after_level(ctx)
            windows.release_rings()
            # Same level-boundary settle as the graph schedulers.
            ctx.system.drain_exec()
        finally:
            obs.close(divide_span)
