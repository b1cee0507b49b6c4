"""The distributed runner: one task graph sharded across worker
processes over a modeled network level.

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
:class:`~repro.core.scheduler.InOrderScheduler` performs.  With the
network level disabled the two are **bit-identical** -- same result
bytes, same makespan, same trace shape -- while the physical kernels
really did run in N processes.  The wall-clock win comes from the
executor overlap; the *virtual* distributed-scaling story is the
projection model (:mod:`repro.dist.model`), which re-schedules the
measured per-node costs onto per-worker lanes.

With a network channel enabled (explicitly, or attached to the tree
via :meth:`~repro.topology.tree.TopologyTree.attach_network`), every
graph edge that crosses a partition boundary additionally charges a
shipment on the channel's per-worker tx/rx lanes
(:class:`~repro.sim.trace.Phase.NET_TRANSFER`): ``move_up``/``combine``
sources ship the chunk's payload bytes; other crossings are zero-byte
control messages.  Shipped handles' ready times advance to the
shipment's arrival, so downstream consumers wait for the network in
virtual time and :mod:`repro.obs.critical` can blame the ``net.*``
lanes like any other resource.
"""

from __future__ import annotations

from repro.core.scheduler import Scheduler
from repro.plan.partition import partition_graph, shipment_bytes
from repro.sim.trace import Phase


class DistributedScheduler(Scheduler):
    """Partition each top-level graph across pinned dist workers.

    Parameters
    ----------
    workers:
        Partition count; defaults to the system executor's worker
        count at drain time.
    network:
        A :class:`~repro.memory.network.NetworkChannel` to charge
        boundary shipments on; ``None`` (default) reads the tree's
        attached network, and a tree without one runs with the network
        level disabled -- the bit-identical mode.
    """

    def __init__(self, *, workers: int | None = None, network=None,
                 keep_plans: bool = False) -> None:
        super().__init__(keep_plans=keep_plans)
        self.workers = workers
        self.network = network
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
        network = self.network
        if network is None:
            network = getattr(system.tree, "network", None)
        pinnable = hasattr(ex, "pin")
        shipped: set[tuple[int, int]] = set()
        net_stats = {"shipments": 0, "bytes": 0, "seconds": 0.0}
        self._active = True
        try:
            for node in graph.nodes:
                part = parts.part_of(node.node_id)
                if network is not None:
                    self._charge_shipments(plan, parts, node, part,
                                           network, shipped, net_stats)
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
        if network is not None:
            graph.meta["network"] = dict(net_stats,
                                         channel=network.describe())
            plan.divide_span.annotate("net_shipments",
                                      net_stats["shipments"])
            plan.divide_span.annotate("net_bytes", net_stats["bytes"])

    def _charge_shipments(self, plan, parts, node, part, network,
                          shipped, net_stats) -> None:
        """Charge one shipment per (source node, destination partition)
        for every boundary edge into ``node``.

        Predecessors are read off the *live* graph (buffer-hazard edges
        appear during execution), so dynamically discovered crossings
        are charged too.  The shipment occupies the source worker's tx
        lane and ours's rx lane, becomes ready when the source chunk's
        payload is, and -- for payload shipments -- advances the
        shipped handles' ready times to its arrival: downstream reads
        wait for the network.
        """
        graph = plan.graph
        timeline = plan.ctx.system.timeline
        for pred_id in node.preds:
            src_part = parts.part_of(pred_id)
            if src_part == part:
                continue
            key = (pred_id, part)
            if key in shipped:
                continue
            shipped.add(key)
            pred = graph.nodes[pred_id]
            nbytes = shipment_bytes(plan, pred)
            handles = ()
            if nbytes and 0 <= pred.chunk_index < len(plan.records):
                handles = plan.records[pred.chunk_index].handles or ()
            ready = 0.0
            for h in handles:
                ready = max(ready, h.ready_at)
            seconds = network.transfer_seconds(nbytes)
            done = timeline.charge_path(
                [network.lane(src_part % parts.workers, "tx"),
                 network.lane(part % parts.workers, "rx")],
                seconds, Phase.NET_TRANSFER, ready=ready,
                label=f"ship {pred.kind} c{pred.chunk_index} "
                      f"p{src_part}->p{part}",
                nbytes=nbytes)
            for h in handles:
                h.note_write(done.end)
            net_stats["shipments"] += 1
            net_stats["bytes"] += nbytes
            net_stats["seconds"] += seconds
