"""A long served stream on one thread, inside a wall budget.

Ten thousand mice (:func:`repro.serve.bench.job_mix` at the sizes below)
arrive as one Poisson stream and are served in arrival-order batches on
one :class:`~repro.serve.service.JobService`; between batches the
finished jobs' root buffers are released, as a long-lived service's
caller would.  Asserted: every job ends DONE, the thread count never
moves (jobs are iterators on the loop's thread), and the whole stream
finishes inside ``BUDGET_S`` wall seconds -- three to four times what
it takes on the 2-vCPU development host (30-40 s), so only a per-grant
cost that grows with the stream's length can trip it.

The releases are charged at the service's current instant
(``Timeline.floor``), as a grant's are.  Released at t=0 instead, each
one's bookkeeping charge searches the host lane for a gap from the
very first booking -- O(stream so far) per release, 130 s for this
stream -- which is the timeline's gap search, not the serve loop.

Not tier-1 (``testpaths = ["tests"]``); CI's ``serve-smoke`` job runs
it: ``PYTHONPATH=src python -m pytest -q benchmarks/bench_serve_stream.py``.
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro.bench import configs
from repro.core.system import System
from repro.serve import JobService, JobState, ServeConfig, poisson_arrivals
from repro.serve.bench import job_mix, tenant_quotas

JOBS = 10_000
BATCH = 250
BUDGET_S = 120.0
#: Mice a fraction of the committed bench's, so 10 k of them fit the budget.
MICE = dict(gemm=dict(m=48, k=48, n=48, tile=32), sort_n=20_000,
            spmv_rows=512, hotspot=dict(n=64, tile=32))
RATE = 2000.0


def test_ten_thousand_mice_on_one_thread():
    stream = poisson_arrivals(job_mix(MICE), rate=RATE, count=JOBS, seed=0)
    system = System(configs.scaled_apu_tree("ssd"))
    service = JobService(system, ServeConfig(
        policy="fair", max_pending=BATCH, quotas=tenant_quotas(),
        max_live_per_tenant=3))
    threads = threading.active_count()
    t0 = perf_counter()
    try:
        for lo in range(0, JOBS, BATCH):
            jobs = service.run(stream[lo:lo + BATCH])
            assert threading.active_count() == threads
            system.timeline.floor = service.now
            for job in jobs:
                assert job.state is JobState.DONE, (job.job_id, job.error)
                job.app.release_root_buffers()
                job.app = None
            system.timeline.floor = 0.0
        wall = perf_counter() - t0
    finally:
        system.close()
    grants = len(service.dispatch_log)
    print(f"\n{JOBS} jobs, {grants} grants in {wall:.1f} s: "
          f"{JOBS / wall:.0f} jobs/s, {1e6 * wall / grants:.0f} us/grant "
          f"(budget {BUDGET_S:.0f} s)")
    assert len(service.finished) == JOBS
    assert wall < BUDGET_S
