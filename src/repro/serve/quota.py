"""Per-tenant resource quotas for the job service.

Two isolation guarantees live here:

* **Allocation caps** -- a tenant's live application buffers may not
  exceed its ``alloc_bytes``.  :class:`QuotaLedger` reaches
  :class:`~repro.core.system.System` through the duck-typed
  :class:`Tenancy` the service installs as ``system.tenancy``;
  ``System.alloc``/``release`` call :meth:`check` / :meth:`on_alloc` /
  :meth:`on_release` without the core ever importing this module.
* **Cache reservations** -- a tenant's cached bytes on a node may not
  be evicted below its ``cache_reservation`` by *another* tenant's
  admissions.  The cache manager's victim guard reads
  :meth:`cache_reservation` to filter eviction candidates.

Fair-share ``weight`` also lives on the quota record so one object
describes a tenant's whole service contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuotaError


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's service contract.

    ``alloc_bytes`` caps the tenant's live application-buffer bytes
    (None = uncapped); ``cache_reservation`` protects that many cached
    bytes per node from other tenants' evictions; ``weight`` scales the
    fair-share scheduler's pass rate (2.0 progresses twice as fast as
    1.0 under contention).
    """

    alloc_bytes: int | None = None
    cache_reservation: int = 0
    weight: float = 1.0


class QuotaLedger:
    """Live per-tenant byte accounting against :class:`TenantQuota` caps.

    Usage is keyed by buffer id so :meth:`on_release` needs no tenant
    argument -- a buffer is debited to whichever tenant allocated it,
    even when released later under another tenant's ambient context
    (e.g. service-side cleanup).
    """

    def __init__(self, quotas: dict[str, TenantQuota]) -> None:
        self.quotas = dict(quotas)
        self._used: dict[str, int] = {}
        self._owner: dict[int, tuple[str, int]] = {}

    # -- System.alloc/release hooks --------------------------------------

    def check(self, tenant: str, nbytes: int) -> None:
        """Raise :class:`~repro.errors.QuotaError` when an allocation of
        ``nbytes`` would push ``tenant`` over its cap."""
        quota = self.quotas.get(tenant)
        if quota is None or quota.alloc_bytes is None:
            return
        used = self._used.get(tenant, 0)
        if used + nbytes > quota.alloc_bytes:
            raise QuotaError(
                f"tenant {tenant!r} quota exceeded: {used} live + {nbytes} "
                f"requested > {quota.alloc_bytes} cap",
                tenant=tenant, requested=nbytes, limit=quota.alloc_bytes,
                used=used)

    def on_alloc(self, tenant: str, handle) -> None:
        self._owner[handle.buffer_id] = (tenant, handle.nbytes)
        self._used[tenant] = self._used.get(tenant, 0) + handle.nbytes

    def on_release(self, handle) -> None:
        owner = self._owner.pop(handle.buffer_id, None)
        if owner is None:
            return
        tenant, nbytes = owner
        self._used[tenant] = max(0, self._used.get(tenant, 0) - nbytes)

    # -- cache / scheduler reads -----------------------------------------

    def used(self, tenant: str) -> int:
        """Live allocated bytes currently debited to ``tenant``."""
        return self._used.get(tenant, 0)

    def cache_reservation(self, tenant: str) -> int:
        quota = self.quotas.get(tenant)
        return quota.cache_reservation if quota is not None else 0

    def weight(self, tenant: str) -> float:
        quota = self.quotas.get(tenant)
        if quota is None or quota.weight <= 0:
            return 1.0
        return quota.weight


@dataclass
class Tenancy:
    """``system.tenancy``, installed once by the job service: the quota
    ledger (or ``None``) and the running grant's tenant and job id."""

    quotas: QuotaLedger | None = None
    tenant: str = ""
    scope: str | None = None
