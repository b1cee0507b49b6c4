"""Northup core: the paper's primary contribution.

* :mod:`repro.core.buffers` -- opaque buffer handles (the paper's
  ``void *``) and the registry resolving them.
* :mod:`repro.core.system` -- :class:`System`: a topology tree bound to
  a virtual timeline, exposing the unified data-management interface of
  Table I (``alloc`` / ``move_data`` / ``move_data_down`` /
  ``move_data_up`` / ``release``) plus kernel launch.
* :mod:`repro.core.context` -- the execution context tracking the
  current tree node during recursion (``get_cur_treenode`` and friends).
* :mod:`repro.core.program` -- the recursive algorithm template of
  Listing 3 (:class:`NorthupProgram`).
* :mod:`repro.core.decomposition` -- capacity-driven chunking math.
* :mod:`repro.core.scheduler` -- the executors of a lowered level's
  task graph, in program order or pipelined (Section III-C's
  multi-stage transfers); the graph is the level's task queue.
* :mod:`repro.core.queues` -- work-stealing deques (Section V-E).
* :mod:`repro.core.stealing` -- the CPU+GPU load-balancing simulation
  behind Figure 11.
* :mod:`repro.core.profiler` -- execution breakdowns (Figures 7/8).
* :mod:`repro.core.api` -- module-level functions in the paper's
  C-flavoured style, for Listing 3 look-alike code.
"""

from repro.core.buffers import BufferHandle, BufferRegistry
from repro.core.system import BatchMove, System
from repro.core.context import ExecutionContext
from repro.core.program import NorthupProgram
from repro.core.profiler import Breakdown, profile_trace

__all__ = [
    "BufferHandle",
    "BufferRegistry",
    "BatchMove",
    "System",
    "ExecutionContext",
    "NorthupProgram",
    "Breakdown",
    "profile_trace",
]
