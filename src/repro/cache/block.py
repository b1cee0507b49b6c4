"""One node's cache: blocks, admission, eviction, pinning.

A cache block is a real buffer: allocated from the node's
:class:`~repro.memory.allocator.FreeListAllocator` (capacity is
genuinely charged), registered in the system's
:class:`~repro.core.buffers.BufferRegistry`, and filled through the
node's backend -- so caching works identically whether the node's bytes
live in arrays (``MemBackend``) or files (``FileBackend``).

Blocks are keyed by :attr:`repro.cache.spec.FetchSpec.key` and carry the
source buffer's content version from admission time; a version mismatch
(the source was rewritten) makes the block stale and it is silently
dropped on the next lookup.  Pinned blocks -- currently lent out as
kernel inputs via ``System.fetch_down`` -- are never evicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.policy import EvictionPolicy, PolicyContext
from repro.cache.spec import FetchSpec
from repro.cache.stats import CacheStats
from repro.core.buffers import BufferHandle, BufferRegistry
from repro.errors import CacheError, CapacityError
from repro.topology.node import TreeNode


@dataclass
class CacheBlock:
    """One cached region resident on a node."""

    spec: FetchSpec
    handle: BufferHandle
    src_version: int
    seq: int
    last_use: int = 0
    uses: int = 0
    pins: int = 0
    prefetched: bool = False
    #: Owning tenant under multi-tenant serving ("" outside serve mode).
    #: Eviction guards use it to keep one tenant from evicting another
    #: below its cache reservation.
    tenant: str = ""

    @property
    def key(self):
        return self.spec.key

    @property
    def nbytes(self) -> int:
        return self.spec.nbytes

    @property
    def pinned(self) -> bool:
        return self.pins > 0

    @property
    def fresh(self) -> bool:
        src = self.spec.src
        return not src.released and src.version == self.src_version


class NodeCache:
    """The buffer cache of one memory node."""

    def __init__(self, node: TreeNode, registry: BufferRegistry,
                 policy: EvictionPolicy, max_bytes: int,
                 policy_ctx: PolicyContext) -> None:
        self.node = node
        self.registry = registry
        self.policy = policy
        self.max_bytes = max_bytes
        self.policy_ctx = policy_ctx
        self.stats = CacheStats()
        self._blocks: dict[tuple, CacheBlock] = {}
        self.handle_ids: set[int] = set()   # of the blocks' own handles
        self._clock = 0
        self._seq = 0
        #: Callable returning the tenant to tag admissions with (the
        #: cache manager binds it to ``system.tenancy``; the default
        #: leaves them untagged).
        self.tenant_source = lambda: ""
        #: Optional eviction filter ``guard(block) -> bool`` (True =
        #: evictable).  Installed by the cache manager when tenant
        #: quotas are active; blocks the guard rejects are invisible to
        #: the eviction policy.
        self.victim_guard = None
        #: ``release_hook(node, handle)`` frees a dropped block's
        #: storage.  The cache manager binds it to the exec layer's
        #: front door, so a release is ordered behind pending
        #: compute-backend work (a deferred copy still reading the
        #: block's bytes).
        self.release_hook = None

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def blocks(self) -> list[CacheBlock]:
        return list(self._blocks.values())

    @property
    def cached_bytes(self) -> int:
        return sum(b.nbytes for b in self._blocks.values())

    @property
    def reclaimable_bytes(self) -> int:
        """Bytes evictable right now (unpinned blocks).  Decomposition
        budgets count these as free: the cache always yields to the
        application's own working set."""
        return sum(b.nbytes for b in self._blocks.values() if not b.pinned)

    def lookup(self, spec: FetchSpec) -> CacheBlock | None:
        """The fresh block for ``spec``, or None.  Stale blocks (source
        rewritten or released) are dropped on sight; hit/miss accounting
        is the caller's job -- this may be a probe, not an access."""
        block = self._blocks.get(spec.key)
        if block is None:
            return None
        if not block.fresh:
            self._drop(block)
            return None
        return block

    def touch(self, block: CacheBlock) -> None:
        """Record an access (for LRU/LFU and prefetch accounting)."""
        self._clock += 1
        block.last_use = self._clock
        block.uses += 1
        if block.prefetched and block.uses == 1:
            self.stats.prefetch_used += 1

    # -- admission / eviction -------------------------------------------

    def admit(self, spec: FetchSpec, *, prefetched: bool = False,
              label: str = "") -> CacheBlock | None:
        """Allocate and register a block for ``spec`` (bytes are filled
        by the caller).  Returns None when the region cannot be hosted
        without evicting pinned blocks or exceeding the cache budget.

        Prefetched admissions never evict: a speculative fill that
        displaces resident blocks turns the cache against itself under
        pressure (each wasted prefetch is a real charged transfer), so
        prefetch only uses capacity that is actually spare.  Demand
        admissions that would evict first ask the policy's
        :meth:`~repro.cache.policy.EvictionPolicy.admit_over` -- the
        Belady oracle bypasses rather than displace sooner-reused
        blocks."""
        if spec.nbytes < 1 or spec.nbytes > self.max_bytes:
            return None
        existing = self._blocks.get(spec.key)
        if existing is not None:
            self._drop(existing)

        def may_evict() -> bool:
            return not prefetched and self.policy.admit_over(
                spec.key, self._blocks.values(), self.policy_ctx)

        while self.cached_bytes + spec.nbytes > self.max_bytes:
            if not may_evict() or not self._evict_one():
                return None
        alloc_id = None
        while alloc_id is None:
            try:
                alloc_id = self.node.device.allocate(spec.nbytes)
            except CapacityError:
                if not may_evict() or not self._evict_one():
                    return None
        handle = self.registry.register(
            node_id=self.node.node_id, nbytes=spec.nbytes, alloc_id=alloc_id,
            label=label or f"cache:{spec.src.label or spec.src.buffer_id}")
        self._seq += 1
        block = CacheBlock(spec=spec, handle=handle,
                           src_version=spec.src.version, seq=self._seq,
                           prefetched=prefetched,
                           tenant=self.tenant_source())
        self._blocks[spec.key] = block
        self.handle_ids.add(handle.buffer_id)
        self.stats.admissions += 1
        return block

    def pin(self, block: CacheBlock) -> None:
        block.pins += 1

    def unpin(self, block: CacheBlock) -> None:
        if block.pins < 1:
            raise CacheError(
                f"unpin of unpinned cache block {block.spec.key}")
        block.pins -= 1

    def reclaim(self, nbytes: int) -> bool:
        """Evict unpinned blocks until the node's allocator can satisfy
        an allocation of ``nbytes`` (capacity interplay: application
        buffers always win over cached copies)."""
        allocator = self.node.device.allocator
        while not allocator.can_fit(nbytes):
            if not self._evict_one():
                return False
        return True

    def invalidate_source(self, buffer_id: int) -> int:
        """Drop every block sourced from ``buffer_id`` (called when the
        source buffer is released); returns blocks dropped."""
        doomed = [b for b in self._blocks.values()
                  if b.spec.src.buffer_id == buffer_id and not b.pinned]
        for b in doomed:
            self._drop(b)
        return len(doomed)

    def drop_all(self) -> None:
        """Release every unpinned block (end-of-run cleanup; not counted
        as capacity evictions)."""
        for b in [b for b in self._blocks.values() if not b.pinned]:
            self._drop(b)

    def _evict_one(self) -> bool:
        candidates = self._blocks.values()
        if self.victim_guard is not None:
            candidates = [b for b in candidates if self.victim_guard(b)]
            if not candidates:
                return False
        victim = self.policy.victim(candidates, self.policy_ctx)
        if victim is None:
            return False
        self.stats.evictions += 1
        self.stats.evicted_bytes += victim.nbytes
        if victim.prefetched and victim.uses == 0:
            self.stats.prefetch_wasted += 1
        self._drop(victim)
        return True

    def _drop(self, block: CacheBlock) -> None:
        if block.pinned:
            raise CacheError(
                f"refusing to drop pinned cache block {block.spec.key}")
        self.registry.unregister(block.handle)
        self.release_hook(self.node, block.handle)
        del self._blocks[block.key]
        self.handle_ids.discard(block.handle.buffer_id)
