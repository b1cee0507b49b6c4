"""``repro.dist``: distributed task-graph execution.

One lowered plan, sharded across worker processes: the
:class:`~repro.dist.executor.DistExecutor` backend runs each
partition's physical kernels in a pinned worker over message-passing
pipes, the :class:`~repro.dist.runner.DistributedScheduler` partitions
each top-level graph, and :mod:`repro.dist.model` projects the
measured per-node costs onto N worker lanes, cross-partition shipments
charged on the modeled network level (:mod:`repro.memory.network`),
for the ``BENCH_distributed.json`` scaling curve.
"""

from repro.dist.executor import DistExecutor, dist_residue
from repro.dist.model import DistProjection, project_plan, project_run
from repro.dist.protocol import SHUTDOWN, CompletionAck, TaskGrant
from repro.dist.runner import DistributedScheduler

__all__ = [
    "CompletionAck", "DistExecutor", "DistProjection",
    "DistributedScheduler", "SHUTDOWN", "TaskGrant", "dist_residue",
    "project_plan", "project_run",
]
