"""Oracles the equivalence suites compare the runtime against.

Each module is a path the runtime *replaced*, kept verbatim so a test
can assert the replacement is bit-identical to it; nothing under
``src/`` imports from here.

* :mod:`tests.reference.eager` -- the graph-free chunk-loop driver
  (oracle for the lowering contract).
* :mod:`tests.reference.hazards` -- the setup step's scan for buffer
  overlaps with earlier chunks (oracle for the static ``buffer`` edges).
* :mod:`tests.reference.random_order` -- a seeded random topological
  order over the lowered graph (any edge-respecting order is exact).
* :mod:`tests.reference.naive_slot` -- the linear-scan timeline slot
  (oracle for the indexed ``repro.sim.timeline._Slot``).
* :mod:`tests.reference.naive_plane` -- copy-out + copy-in byte
  movement with a file ``open`` per operation (oracle for
  ``Device.copy_into`` / ``copy_into_2d``).
* :mod:`tests.reference.padded_stencil` -- the HotSpot update as one
  NumPy expression over a fresh padded copy per step (oracle for the
  flat-frame sweep's float32 operation order).
"""
