"""First-order distributed-makespan projection: the scaling curve.

The live distributed drain keeps virtual time bit-identical to the
single-process schedule by construction (:mod:`repro.dist.runner`), so
the *virtual* worker-count scaling story comes from a projection, the
same way :mod:`repro.emulator.projection` projects device sweeps from
a measured trace instead of re-running it.

:func:`project_plan` takes one drained top-level
:class:`~repro.plan.lower.LevelPlan` (its nodes carry their measured
trace-interval windows, so a node's cost is the busy time it actually
charged, nested levels included), partitions the graph with the same
partitioner the live runner uses, and list-schedules the nodes in
program order onto per-worker lanes:

* a node starts at ``max(lane free, predecessors' finish)`` and
  occupies its lane for its measured cost;
* a predecessor in another partition is reached through a shipment on
  the modeled :class:`~repro.memory.network.NetworkChannel`:
  ``move_up``/``combine`` sources ship the chunk's payload bytes,
  other crossings ship zero-byte control messages, and shipments out
  of one worker serialise on its tx lane;
* ``window`` edges are dropped -- they cap in-flight buffers on *one*
  machine, and each distributed worker holds its own replica buffers;
* ``buffer`` hazards crossing partitions are dropped for the same
  reason (replica buffers cannot alias); same-partition hazards hold;
* ``queue`` edges hold everywhere: allocation order and the
  deterministic combine fold stay globally ordered.

``workers=1`` degenerates to the serial sum of node costs -- the
baseline every speedup in ``BENCH_distributed.json`` is relative to.
The model is first-order on purpose: each worker replicates the
original device tree (per-node costs transplant unchanged), and
intra-node overlap beyond the measured windows is ignored.  MODEL.md
documents the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.plan.graph import BUFFER, WINDOW
from repro.plan.partition import partition_graph, shipment_bytes


@dataclass
class DistProjection:
    """Projected distributed execution of one level plan."""

    workers: int
    makespan_s: float
    #: Serial sum of measured node costs (the workers=1 makespan).
    serial_s: float
    #: Busy seconds per worker lane.
    lane_busy_s: list[float] = field(default_factory=list)
    shipments: int = 0
    shipped_bytes: int = 0
    net_seconds: float = 0.0
    boundary_edges: int = 0

    @property
    def speedup(self) -> float:
        return self.serial_s / self.makespan_s if self.makespan_s else 1.0

    def row(self) -> dict:
        """Bench-JSON row for one worker count."""
        return {
            "workers": self.workers,
            "strategy": "chunk",
            "makespan_s": self.makespan_s,
            "speedup": round(self.speedup, 4),
            "net_s": round(self.net_seconds, 9),
            "shipments": self.shipments,
            "shipped_bytes": self.shipped_bytes,
            "boundary_edges": self.boundary_edges,
            "meta": {
                "lane_busy_s": [round(s, 9) for s in self.lane_busy_s],
            },
        }


def _node_costs(plan) -> list[float]:
    """Measured busy seconds per node: the durations of the trace
    intervals each node's execution recorded (nested levels charge
    inside their outer compute node's window)."""
    trace = plan.ctx.system.timeline.trace
    costs = []
    for node in plan.graph.nodes:
        lo, hi = node.first_interval, node.end_interval
        if lo is None or hi is None or hi <= lo:
            costs.append(0.0)
        else:
            costs.append(trace.window_busy(lo, hi))
    return costs


def project_plan(plan, *, workers: int, channel=None) -> DistProjection:
    """Project ``plan``'s graph onto ``workers`` lanes; see module doc.

    The plan must have been drained (node interval windows stamped) --
    run the app first, e.g. under ``InOrderScheduler(keep_plans=True)``.
    """
    graph = plan.graph
    parts = partition_graph(graph, workers)
    costs = _node_costs(plan)
    serial = sum(costs)
    lane_free = [0.0] * workers
    lane_busy = [0.0] * workers
    finish: dict[int, float] = {}
    #: (src node, dst partition) -> arrival time (one shipment per pair).
    arrived: dict[tuple[int, int], float] = {}
    tx_free = [0.0] * workers
    shipments = 0
    shipped = 0
    net_seconds = 0.0
    for node in graph.nodes:
        part = parts.part_of(node.node_id)
        ready = 0.0
        for pred_id, kind in node.preds.items():
            src_part = parts.part_of(pred_id)
            if kind == WINDOW:
                continue                    # per-worker replica buffers
            if kind == BUFFER and src_part != part:
                continue                    # replicas cannot alias
            t = finish[pred_id]
            if src_part != part:
                if channel is not None:
                    key = (pred_id, part)
                    arrival = arrived.get(key)
                    if arrival is None:
                        pred = graph.nodes[pred_id]
                        nbytes = shipment_bytes(plan, pred)
                        cost = channel.transfer_seconds(nbytes)
                        start = max(t, tx_free[src_part])
                        arrival = start + cost
                        tx_free[src_part] = arrival
                        arrived[key] = arrival
                        shipments += 1
                        shipped += nbytes
                        net_seconds += cost
                    t = arrival
            ready = max(ready, t)
        start = max(ready, lane_free[part])
        end = start + costs[node.node_id]
        lane_free[part] = end
        lane_busy[part] += costs[node.node_id]
        finish[node.node_id] = end
    makespan = max([0.0, *finish.values(), *tx_free])
    return DistProjection(
        workers=workers, makespan_s=makespan,
        serial_s=serial, lane_busy_s=[round(c, 12) for c in lane_busy],
        shipments=shipments, shipped_bytes=shipped,
        net_seconds=net_seconds, boundary_edges=len(parts.boundary))


def project_run(plans, *, workers: int, channel=None) -> DistProjection:
    """Aggregate projection over a whole run's top-level plans.

    An app may drain several top-level levels in sequence (retained via
    ``keep_plans=True``); nested plans are excluded -- their costs are
    already inside their outer compute nodes' windows.  Sequential
    levels add up: makespans, serials and shipment counters sum.
    """
    tops = [p for p in plans
            if getattr(p.ctx.node, "parent", None) is None]
    if not tops:
        raise ValueError("no top-level plans to project; run the app "
                         "under a scheduler with keep_plans=True first")
    projs = [project_plan(p, workers=workers, channel=channel)
             for p in tops]
    lanes = [0.0] * workers
    for pr in projs:
        for i, busy in enumerate(pr.lane_busy_s):
            lanes[i] += busy
    return DistProjection(
        workers=workers,
        makespan_s=sum(p.makespan_s for p in projs),
        serial_s=sum(p.serial_s for p in projs),
        lane_busy_s=[round(c, 12) for c in lanes],
        shipments=sum(p.shipments for p in projs),
        shipped_bytes=sum(p.shipped_bytes for p in projs),
        net_seconds=sum(p.net_seconds for p in projs),
        boundary_edges=sum(p.boundary_edges for p in projs))
