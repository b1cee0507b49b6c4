"""Northup: divide-and-conquer programming for heterogeneous memories
and processors.

A reproduction of Che & Yin, "Northup: Divide-and-Conquer Programming in
Systems with Heterogeneous Memories and Processors" (IPPS 2019).

The public surface, by layer:

* machine description -- :mod:`repro.topology` (the Northup tree),
  :mod:`repro.memory` (device models and backends),
  :mod:`repro.compute` (processors and kernels);
* the programming model -- :class:`repro.core.System` (Table I's unified
  data management), :class:`repro.core.NorthupProgram` (the Listing 3
  recursion template), :mod:`repro.core.api` (paper-style free
  functions);
* applications -- :mod:`repro.apps` (GEMM, HotSpot-2D, CSR-Adaptive
  SpMV, and in-memory baselines);
* evaluation -- :mod:`repro.bench` (scenario cell runners),
  :mod:`repro.emulator` (storage projection).

Quick taste::

    from repro import System, GemmApp, apu_two_level

    system = System(apu_two_level(staging_bytes=2 << 20))
    app = GemmApp(system, m=512, k=512, n=512)
    app.run(system)
    print(system.breakdown().table())
"""

from repro.core import (BufferHandle, Breakdown, ExecutionContext,
                        NorthupProgram, System, profile_trace)
from repro.core.scheduler import (InOrderScheduler, PipelinedScheduler,
                                  Scheduler)
from repro.topology import TopologyTree, build_from_spec, validate_tree
from repro.topology.builders import (apu_two_level,
                                     discrete_gpu_three_level,
                                     exascale_node, figure2_asymmetric,
                                     in_memory_single_level)
from repro.apps import (GemmApp, HotspotApp, InMemoryGemm, InMemoryHotspot,
                        InMemorySpmv, ReduceApp, SortApp, SpmvApp)
from repro.errors import NorthupError

__version__ = "0.1.0"

__all__ = [
    "System",
    "NorthupProgram",
    "ExecutionContext",
    "BufferHandle",
    "Breakdown",
    "profile_trace",
    "Scheduler",
    "InOrderScheduler",
    "PipelinedScheduler",
    "TopologyTree",
    "build_from_spec",
    "validate_tree",
    "apu_two_level",
    "discrete_gpu_three_level",
    "exascale_node",
    "figure2_asymmetric",
    "in_memory_single_level",
    "GemmApp",
    "HotspotApp",
    "SpmvApp",
    "ReduceApp",
    "SortApp",
    "InMemoryGemm",
    "InMemoryHotspot",
    "InMemorySpmv",
    "NorthupError",
    "__version__",
]
