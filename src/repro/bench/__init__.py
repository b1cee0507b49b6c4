"""Benchmark harness: the paper's evaluation as scenario cells.

* :mod:`repro.bench.configs` -- the scaled experimental setup (devices,
  trees, the one workload scale) and the scaling rules that preserve the
  paper's compute:I/O ratios.
* :mod:`repro.bench.cells` -- the registered cell runners, the only code
  that computes a committed figure (Figures 6, 7, 8, 9, 11, the Section
  V-B runtime overhead, the ablations and the forward-looking analyses).
* :mod:`repro.bench.reporting` -- paper-style tables rendered from cell
  records.
* :mod:`repro.bench.parallel` -- process-pool fan-out of independent
  cells with a deterministic merge.
"""

from repro.bench import configs, parallel, reporting

__all__ = ["configs", "parallel", "reporting"]
