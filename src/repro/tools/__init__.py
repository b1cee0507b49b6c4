"""Command-line and reporting utilities.

* ``python -m repro.tools.describe`` -- render built-in topologies, JSON
  topology specs and lowered task graphs, and list every name-keyed
  registry (Section III-E: "Northup can output the topology").
* :mod:`repro.tools.experiment` (``python -m repro experiment``) --
  the scenario harness: run, collect and list the committed scenarios
  that produce every table/figure of the paper.
* :mod:`repro.tools.trace_export` -- Chrome Trace Event JSON for
  chrome://tracing / Perfetto.
"""
