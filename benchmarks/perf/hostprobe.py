"""Host-speed probe: a fixed piece of work timed next to every rep.

The sandbox this benchmark runs in is a small VM on a shared host, and
how fast it executes the *same* instructions drifts by +-40% from one
minute to the next (a busy neighbour on the sibling hyper-thread, host
memory pressure).  Medians of raw wall time taken a few minutes apart
then differ by more than any bound worth gating on.  So every rep is
bracketed by this probe -- a fixed BLAS part and a fixed interpreter
part, the two kinds of instruction the workloads are made of -- and the
end-to-end times are reported at the speed of a reference host::

    run_s = wall run_s of the rep * REF_S / (probe time around the rep)

The probe shares no code with ``src/``, so a change to the program
cannot move it; only the host can.  The unscaled wall medians and the
measured slow-down are reported next to the ledger (``host.*``).
"""

from __future__ import annotations

from time import perf_counter

#: What one probe takes on the host the workload sizes were frozen on
#: when nothing else runs there.  Only a unit: it makes the scaled
#: times read as seconds on that host.
REF_S = 0.0165

_MATMULS = 8
_LOOP = 240_000


def make_probe():
    """Build the probe once per process; each call returns the seconds
    one probe took."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.random((384, 384), dtype=np.float32)
    b = rng.random((384, 384), dtype=np.float32)

    def probe() -> float:
        t0 = perf_counter()
        for _ in range(_MATMULS):
            a @ b
        x = 0
        for i in range(_LOOP):
            x += i & 3
        return perf_counter() - t0

    return probe
