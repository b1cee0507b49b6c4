"""The mailbox between the service event loop and one job's iterator.

A served job is its application's ``steps()`` -- the one resumable
execution path every program has (:mod:`repro.core.program`) -- under a
:class:`CooperativeScheduler`, which *yields* each lowered level's ready
task-graph nodes and is resumed with the node it may execute.  A grant
is a generator ``send`` on the loop's own thread, not a thread hand-off:
execution is single-file and deterministic by construction, and the
generator chain is the re-entrancy vehicle -- a job may be suspended
inside nested levels, phase loops and ``try/finally`` blocks, and
closing its iterator unwinds them all.

Work a job performs *between* yields (app construction, the sort merge,
HotSpot restaging, teardown) rides attached to the preceding grant.
"""

from __future__ import annotations

from repro.core.scheduler import Scheduler
from repro.errors import SchedulerError


class JobGate:
    """What one job last told the service: the nodes it offers, or that
    it is done (and how).  Plain fields: one thread reads and writes."""

    def __init__(self) -> None:
        self.plan = None
        self.ready: list | None = None
        self.done = False
        self.error: BaseException | None = None

    def offer(self, plan, ready: list) -> None:
        """Publish the level and ready nodes the job just yielded."""
        self.plan = plan
        self.ready = ready

    def finish(self, error: BaseException | None = None) -> None:
        """Record that the job's ``steps()`` returned (or raised)."""
        self.done = True
        self.error = error
        self.plan = None
        self.ready = None

    def wait_parked(self) -> None:
        """The invariant every decision rests on: parked at an offer,
        or done."""
        if not self.done and not self.ready:
            raise SchedulerError(
                "job is neither parked at an offer nor done")


class CooperativeScheduler(Scheduler):
    """Level executor that yields every node decision to its stepper.

    Drains a :class:`~repro.plan.lower.LevelPlan` by yielding ``(plan,
    graph.ready())`` and executing whichever node is sent back; nested
    levels yield through the same iterator chain, so the service
    interleaves at whatever level the job is expanding.  The service
    always grants ``ready[0]``, the next program-order node, so a job's
    own operation sequence is exactly the :class:`~repro.core.scheduler
    .InOrderScheduler` one -- what solo bit-identity rests on.
    """

    def _drain(self, plan):
        graph = plan.graph
        while not graph.complete:
            ready = graph.ready()
            if not ready:
                raise SchedulerError(
                    f"cooperative drain stalled with {graph.remaining} "
                    f"pending nodes (dependency cycle?)")
            node = yield plan, ready
            if node is None or not graph.is_ready(node):
                raise SchedulerError(
                    f"service granted {node!r}, which this job did not offer")
            yield from plan.execute(node)
