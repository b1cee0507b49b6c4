"""Exception hierarchy for the Northup reproduction.

Every error raised by this package derives from :class:`NorthupError`, so
callers can catch framework failures with a single ``except`` clause while
still distinguishing subsystems by subclass.
"""

from __future__ import annotations


class NorthupError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(NorthupError):
    """A configuration value (device spec, topology spec, app parameter)
    is malformed or inconsistent."""


class TopologyError(NorthupError):
    """The topology tree is structurally invalid (cycles, duplicate ids,
    leaves without processors, orphaned nodes, ...)."""


class CapacityError(NorthupError):
    """A memory or storage node cannot satisfy an allocation request.

    Attributes
    ----------
    requested:
        Number of bytes that were asked for.
    available:
        Number of bytes that were actually free on the node.
    node:
        Identifier of the node that rejected the request (may be ``None``
        when raised by a bare allocator).
    """

    def __init__(self, message: str, *, requested: int = 0,
                 available: int = 0, node: int | None = None) -> None:
        super().__init__(message)
        self.requested = requested
        self.available = available
        self.node = node


class AllocationError(NorthupError):
    """A buffer handle is unknown, double-freed, or used after release."""


class TransferError(NorthupError):
    """A data movement request is invalid (out-of-bounds offsets, size
    mismatch, unsupported device-type pair, cross-tree transfer, ...)."""


class CacheError(NorthupError):
    """The buffer cache was driven incorrectly (unpinning an unpinned
    block, dropping a pinned block, unknown lease, ...)."""


class SchedulerError(NorthupError):
    """The task scheduler detected an inconsistency (dependency cycle,
    task re-submission, pop from a foreign queue, ...)."""


class UnsortedRunError(NorthupError):
    """A merge pass made no progress: one of the runs it merges is not
    sorted, which only a fault in run formation can cause."""


class KernelError(NorthupError):
    """A compute kernel was invoked with invalid arguments (shape
    mismatch, wrong dtype, non-finite coefficients, ...)."""


class QuotaError(NorthupError):
    """A tenant exceeded its allocation quota under multi-tenant serving.

    Attributes
    ----------
    tenant:
        The tenant whose quota was breached.
    requested:
        Bytes the allocation asked for.
    limit:
        The tenant's configured allocation cap.
    used:
        Bytes the tenant already had live when the request arrived.
    """

    def __init__(self, message: str, *, tenant: str = "", requested: int = 0,
                 limit: int = 0, used: int = 0) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.requested = requested
        self.limit = limit
        self.used = used


class SimulationError(NorthupError):
    """A virtual-time resource was charged incorrectly (negative
    duration, zero slots, overlapping slot reservations)."""
