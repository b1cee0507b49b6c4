"""Virtual-time simulation substrate.

This package provides the virtual-time machinery that every timing
experiment in the reproduction is built on:

* :mod:`repro.sim.trace` -- typed trace of timed intervals, the raw
  material for the execution breakdowns of Figures 7 and 8.
* :mod:`repro.sim.timeline` -- resource timelines: each hardware resource
  (an SSD channel, the GPU, a PCIe link) serialises the operations charged
  to it, which is how transfer/compute overlap emerges.

The paper's evaluation (Section V) runs on real hardware; here the same
phenomena -- bandwidth gaps between storage levels, pipelined transfers,
compute/IO overlap -- are produced by charging costs against these virtual
resources while kernels compute real answers with NumPy.
"""

from repro.sim.trace import Interval, Phase, Trace
from repro.sim.timeline import Resource, Timeline

__all__ = [
    "Interval",
    "Phase",
    "Trace",
    "Resource",
    "Timeline",
]
