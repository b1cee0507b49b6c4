"""A seeded random-topological-order executor (test vehicle only).

Moved verbatim from ``repro.core.scheduler``: nothing outside the
equivalence suites ever ran a program under it.
"""

import random

from repro.core.scheduler import Scheduler
from repro.errors import SchedulerError


class RandomOrderScheduler(Scheduler):
    """Execute a seeded uniformly-random topological order.

    The equivalence property test's vehicle: *any* edge-respecting
    order must produce bit-identical result arrays and move the same
    bytes, because the edges carry every cross-chunk dependency.
    Virtual makespans may legitimately differ between orders (issue
    order steers the timeline's greedy placement); results may not.
    """

    def __init__(self, seed: int, *, window: int | None = None,
                 keep_plans: bool = False) -> None:
        super().__init__(keep_plans=keep_plans)
        self.rng = random.Random(seed)
        self.window = window

    def level_window(self, program, ctx, chunks: list) -> int:
        if self.window is not None:
            return max(1, self.window)
        return max(1, program.pipeline_window(ctx, chunks))

    def _drain(self, plan):
        graph = plan.graph
        while not graph.complete:
            ready = graph.ready()
            if not ready:
                raise SchedulerError(
                    f"random drain stalled with {graph.remaining} "
                    f"pending nodes (dependency cycle?)")
            yield from plan.execute(
                ready[self.rng.randrange(len(ready))])
