"""Workload generators.

The paper evaluates on 16k/32k dense float matrices (GEMM, HotSpot) and
sparse matrices from the Florida collection with 16M rows (SpMV).
Neither the exact files nor that scale make sense for a simulation-backed
reproduction, so this package provides seeded generators:

* :mod:`repro.workloads.matrices` -- dense matrices, their placement
  on tree nodes, and the row bands every dense generator is built from;
* :mod:`repro.workloads.thermal` -- HotSpot temperature/power grids;
* :mod:`repro.workloads.sparse` -- synthetic sparse matrices (uniform,
  banded, power-law) plus Florida-collection-shaped presets, chosen to
  exercise the row-nnz skew that drives CSR-Adaptive's behaviour.

Everything takes an explicit seed; generated data is deterministic.
"""

from repro.workloads.matrices import random_dense
from repro.workloads.thermal import initial_temperature, power_grid
from repro.workloads.sparse import (banded, powerlaw_rows, preset,
                                    preset_names, uniform_random)

__all__ = [
    "random_dense",
    "initial_temperature",
    "power_grid",
    "banded",
    "powerlaw_rows",
    "preset",
    "preset_names",
    "uniform_random",
]
