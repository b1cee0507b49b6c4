"""The paper's case-study applications (Section IV), Northup-style.

* :mod:`repro.apps.gemm` -- out-of-core dense matrix multiply with the
  row-shard reuse optimisation (IV-A).
* :mod:`repro.apps.hotspot` -- HotSpot-2D thermal simulation with
  packed-border blocks (IV-B).
* :mod:`repro.apps.spmv` -- CSR-Adaptive SpMV with nnz-aware sharding
  (IV-C).
* :mod:`repro.apps.reduce` and :mod:`repro.apps.sort` -- an
  out-of-core reduction and an external merge sort (the combine and
  merge phases).

Each app computes real answers (verified against NumPy/SciPy references
in the tests) while the System charges virtual time; the same app code
runs unchanged on the 2-level APU tree, the 3-level discrete-GPU tree,
deeper topologies, and the one-node DRAM tree whose runs are the
in-memory bars of Figure 6 -- which is the portability claim of the
paper.
"""

from repro.apps.gemm import GemmApp
from repro.apps.hotspot import HotspotApp
from repro.apps.spmv import SpmvApp
from repro.apps.reduce import ReduceApp
from repro.apps.sort import SortApp

__all__ = [
    "GemmApp",
    "ReduceApp",
    "SortApp",
    "HotspotApp",
    "SpmvApp",
]
