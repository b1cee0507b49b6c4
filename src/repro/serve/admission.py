"""Admission control: bounded pending queue + per-tenant live limits.

Two independent knobs bound the service's exposure:

* ``max_pending`` -- the submission queue is bounded; a submission
  that finds it full is REJECTED outright (the caller sees it in the
  returned job state and the ``serve_jobs_rejected`` counter).
* ``max_live_per_tenant`` -- at most that many of one tenant's jobs
  hold live root buffers and scheduler slots at once.  Admission scans
  the pending queue in FIFO order but *skips over* jobs whose tenant is
  at its limit, so one tenant saturating its own limit never blocks
  another tenant's head-of-queue job.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError
from repro.serve.job import Job, JobState


class AdmissionController:
    def __init__(self, *, max_pending: int = 64,
                 max_live_per_tenant: int = 2) -> None:
        if max_pending < 1 or max_live_per_tenant < 1:
            raise ConfigError(
                f"admission limits must be >= 1, got max_pending="
                f"{max_pending}, max_live_per_tenant={max_live_per_tenant}")
        self.max_pending = max_pending
        self.max_live_per_tenant = max_live_per_tenant
        self.pending: deque[Job] = deque()
        self.rejected = 0
        self.admitted = 0

    def submit(self, job: Job) -> bool:
        """Queue a job; False (and state REJECTED) when the queue is
        full."""
        if len(self.pending) >= self.max_pending:
            job.state = JobState.REJECTED
            self.rejected += 1
            return False
        self.pending.append(job)
        return True

    def admit_ready(self, live: list[Job]) -> list[Job]:
        """Pop every pending job admissible given the live set, FIFO
        with per-tenant skipping.  The returned jobs count against
        their tenants' limits immediately (so one call cannot
        over-admit a tenant)."""
        counts: dict[str, int] = {}
        for job in live:
            counts[job.tenant] = counts.get(job.tenant, 0) + 1
        admitted: list[Job] = []
        kept: deque[Job] = deque()
        while self.pending:
            job = self.pending.popleft()
            if counts.get(job.tenant, 0) < self.max_live_per_tenant:
                counts[job.tenant] = counts.get(job.tenant, 0) + 1
                admitted.append(job)
                self.admitted += 1
            else:
                kept.append(job)
        self.pending = kept
        return admitted
