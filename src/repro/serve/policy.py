"""Node-granularity scheduling policies for the job service.

A policy answers one question, over and over: *given the jobs currently
parked at an offer, whose node runs next?*  The service always executes
the chosen job's first ready node (its next program-order operation),
so policies order **jobs**, never reorder operations within a job --
that invariant is what keeps every served job bit-identical to a solo
in-order run.

Three policies:

* :class:`FifoPolicy` -- strictly earliest-admitted job first.  Simple
  and fair in arrival order, but an admitted elephant monopolises the
  device tree until it completes: classic head-of-line blocking, the
  contended-mix p99 the bench quantifies.
* :class:`FairSharePolicy` -- stride/deficit scheduling over tenants.
  Every grant charges its *measured* virtual busy time, divided by the
  tenant's weight, to the tenant's pass counter; the offering job of
  the lowest-pass tenant runs next.  Deterministic: ties break on
  (pass, tenant name, admission seq), and the seed only perturbs the
  per-tenant *initial* offsets (deterministically, in order of first
  appearance) so co-starting tenants don't always break ties the same
  way across reruns with different seeds.
* :class:`PriorityPolicy` -- strict priority classes with fair sharing
  inside each class.  Preemption is at node granularity by
  construction: a higher-priority job's ready node jumps ahead at the
  very next grant decision, while the in-flight node (grants are
  atomic) is never aborted.
"""

from __future__ import annotations

import random

from repro.errors import ConfigError
from repro.serve.job import Job


class SchedulingPolicy:
    """Base: pick one job among those parked at an offer."""

    name = "base"

    def on_admit(self, job: Job) -> None:
        """Called once when a job is admitted (before its first grant)."""

    def on_grant(self, job: Job, cost: float) -> None:
        """Called after a grant completes; ``cost`` is the grant's
        measured virtual busy time (summed interval durations)."""

    def select(self, offers: list[Job]) -> Job:
        raise NotImplementedError


class FifoPolicy(SchedulingPolicy):
    """Earliest-admitted offering job first."""

    name = "fifo"

    def select(self, offers: list[Job]) -> Job:
        return min(offers, key=lambda j: j.seq)


class FairSharePolicy(SchedulingPolicy):
    """Weighted stride scheduling over tenants.

    ``quotas`` (a :class:`~repro.serve.quota.QuotaLedger` or None)
    supplies per-tenant weights; absent tenants weigh 1.0.  A tenant
    first seen mid-run starts at the *minimum live pass* (not zero), so
    a late arrival cannot replay the whole backlog it missed.
    """

    name = "fair"

    def __init__(self, *, quotas=None, seed: int = 0) -> None:
        self.quotas = quotas
        self._rng = random.Random(seed)
        self._pass: dict[str, float] = {}
        #: Deterministic tiny tie-break offsets, drawn once per tenant
        #: in order of first appearance.
        self._offset: dict[str, float] = {}

    def _weight(self, tenant: str) -> float:
        if self.quotas is None:
            return 1.0
        return self.quotas.weight(tenant)

    def _ensure(self, tenant: str) -> None:
        if tenant in self._pass:
            return
        floor = min(self._pass.values()) if self._pass else 0.0
        self._offset[tenant] = self._rng.random() * 1e-9
        self._pass[tenant] = floor

    def on_admit(self, job: Job) -> None:
        self._ensure(job.tenant)

    def on_grant(self, job: Job, cost: float) -> None:
        self._ensure(job.tenant)
        self._pass[job.tenant] += max(0.0, cost) / self._weight(job.tenant)

    def select(self, offers: list[Job]) -> Job:
        for job in offers:
            self._ensure(job.tenant)
        return min(offers, key=lambda j: (
            self._pass[j.tenant] + self._offset[j.tenant], j.tenant, j.seq))


class PriorityPolicy(SchedulingPolicy):
    """Strict priority classes, fair-share within each class.

    Higher ``JobSpec.priority`` wins.  Because selection happens before
    every single node grant, a newly-offering high-priority job
    overtakes a low-priority job between *its* nodes -- node-granularity
    preemption without aborting in-flight work.
    """

    name = "priority"

    def __init__(self, *, quotas=None, seed: int = 0) -> None:
        self._fair = FairSharePolicy(quotas=quotas, seed=seed)

    def on_admit(self, job: Job) -> None:
        self._fair.on_admit(job)

    def on_grant(self, job: Job, cost: float) -> None:
        self._fair.on_grant(job, cost)

    def select(self, offers: list[Job]) -> Job:
        top = max(j.spec.priority for j in offers)
        return self._fair.select(
            [j for j in offers if j.spec.priority == top])


def make_policy(name: str, *, quotas=None, seed: int = 0) -> SchedulingPolicy:
    if name == "fifo":
        return FifoPolicy()
    if name == "fair":
        return FairSharePolicy(quotas=quotas, seed=seed)
    if name == "priority":
        return PriorityPolicy(quotas=quotas, seed=seed)
    raise ConfigError(
        f"unknown scheduling policy {name!r}; known: fifo, fair, priority")
