"""The distributed runner: one task graph sharded across worker
processes.

:class:`DistributedScheduler` is a drop-in level executor
(:mod:`repro.core.scheduler`): it partitions each lowered top-level
graph into contiguous chunk ranges
(:func:`repro.plan.partition.partition_graph`), pins the
system's :class:`~repro.dist.executor.DistExecutor` to a node's
partition before dispatching it -- so every partition's *physical*
kernels, including nested levels lowered inside its compute nodes, run
in that partition's worker process -- and drains the graph in recorded
program order.

Program order is the point, not a simplification: virtual time stays
on the coordinator (the executor split's invariant), so an in-order
drain performs exactly the charges single-process
:class:`~repro.core.scheduler.InOrderScheduler` performs, and the two
are **bit-identical** -- same result bytes, same makespan, same trace shape -- while the physical kernels
really did run in N processes.  The wall-clock win comes from the
executor overlap; the *virtual* distributed-scaling story is the
projection model (:mod:`repro.dist.model`), which re-schedules the
measured per-node costs onto per-worker lanes.  The network between
workers is modeled only there: the projection charges boundary-crossing
shipments on a :class:`~repro.memory.network.NetworkChannel`; the live
timeline never does.
"""

from __future__ import annotations

from repro.core.scheduler import Scheduler
from repro.plan.partition import partition_graph


class DistributedScheduler(Scheduler):
    """Partition each top-level graph across pinned dist workers.

    Parameters
    ----------
    workers:
        Partition count; defaults to the system executor's worker
        count at drain time.
    """

    def __init__(self, *, workers: int | None = None,
                 keep_plans: bool = False) -> None:
        super().__init__(keep_plans=keep_plans)
        self.workers = workers
        #: Partitioning of every drained top-level graph, in order.
        self.partitionings: list = []
        self._active = False

    # Nested levels lower inside an outer compute node's thunk; they
    # inherit the outer node's pin (the whole chunk chain belongs to
    # one worker), so only the outermost drain partitions.

    def _drain(self, plan):
        if self._active:
            yield from plan.run_in_order()
            return
        system = plan.ctx.system
        ex = system.executor
        graph = plan.graph
        workers = self.workers or ex.workers
        parts = partition_graph(graph, workers)
        self.partitionings.append(parts)
        graph.meta["partitioning"] = parts.stats()
        plan.divide_span.annotate("dist_partitions", parts.workers)
        plan.divide_span.annotate("dist_strategy", "chunk")
        plan.divide_span.annotate("dist_boundary_edges",
                                  len(parts.boundary))
        pinnable = hasattr(ex, "pin")
        self._active = True
        try:
            for node in graph.nodes:
                part = parts.part_of(node.node_id)
                if pinnable:
                    ex.pin(part)
                    ex.set_task_context(node_id=node.node_id,
                                        partition=part)
                yield from plan.execute(node)
                node.meta["partition"] = part
        finally:
            self._active = False
            if pinnable:
                ex.pin(None)
                ex.set_task_context()
