"""The cache manager: one per :class:`~repro.core.system.System`.

Owns a lazily-created :class:`~repro.cache.block.NodeCache` for every
non-root memory node, the :class:`~repro.cache.prefetch.PrefetchEngine`,
the write-back ledger for deferred ``move_data_up`` charges, and the
lease table behind ``System.fetch_down`` / ``System.fetch_release``.

Modes
-----
``off``
    No caching anywhere.  ``fetch_down`` degenerates to
    allocate + move + release-on-``fetch_release``.
``explicit`` (the default)
    Only the pinned-fetch API (``System.fetch_down``) goes through the
    cache.  This centrally reimplements the A-shard reuse GEMM used to
    hand-roll, with zero behavioural change for programs that never call
    ``fetch_down`` -- raw ``move``/``move_2d`` stay exactly as before.
``full``
    Additionally, every ancestor->descendant ``move``/``move_2d``
    consults the destination node's cache (a hit replaces the transfer
    with a bookkeeping charge) and admits on miss, and the prefetch
    engine issues lookahead fetches from the decomposition plan.

Write policy
------------
``through`` charges every ``move_data_up`` immediately (the existing
behaviour).  ``back`` defers the virtual charge as an IOU keyed by the
destination region; re-dirtying the same region before a flush absorbs
the previous IOU (that transfer never happens), and the ledger flushes
when either endpoint is next read, released, or at end of run.  Physical
bytes always move eagerly, so results are bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache.block import CacheBlock, NodeCache
from repro.cache.policy import PolicyContext, make_policy
from repro.cache.prefetch import PrefetchEngine
from repro.cache.spec import FetchSpec
from repro.cache.stats import CacheStats
from repro.core.buffers import BufferHandle
from repro.errors import CacheError, ConfigError
from repro.memory.channel import transfer_cost
from repro.sim.trace import Phase
from repro.topology.node import TreeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import MoveResult, System

CACHE_MODES = ("off", "explicit", "full")
WRITE_POLICIES = ("through", "back")

#: Host-side bookkeeping cost of serving a cache hit (a map lookup and a
#: couple of counter updates -- same order as RUNTIME_OP_COST).
HIT_COST = 0.5e-6


@dataclass(frozen=True)
class CacheConfig:
    """Tunables of the per-node buffer caches."""

    #: "off" | "explicit" | "full" (see module docstring).
    mode: str = "explicit"
    #: Eviction policy name (see :func:`repro.cache.policy.make_policy`).
    policy: str = "lru"
    #: "through" (charge up-moves immediately) | "back" (defer as IOUs).
    write_policy: str = "through"
    #: Planned fetches issued ahead of each demand access (0 disables).
    lookahead: int = 2
    #: Fraction of a node's capacity the cache may occupy.  Cached bytes
    #: always yield to application allocations (reclaim-on-demand).
    capacity_fraction: float = 0.5
    #: Virtual seconds charged on the host for serving a hit.
    hit_cost: float = HIT_COST

    def __post_init__(self) -> None:
        if self.mode not in CACHE_MODES:
            raise ConfigError(
                f"unknown cache mode {self.mode!r}; choose from {CACHE_MODES}")
        if self.write_policy not in WRITE_POLICIES:
            raise ConfigError(
                f"unknown write policy {self.write_policy!r}; choose from "
                f"{WRITE_POLICIES}")
        if self.lookahead < 0:
            raise ConfigError(f"negative lookahead {self.lookahead}")
        if not 0.0 <= self.capacity_fraction <= 1.0:
            raise ConfigError(
                f"capacity_fraction {self.capacity_fraction} outside [0, 1]")
        if self.hit_cost < 0:
            raise ConfigError(f"negative hit_cost {self.hit_cost}")
        make_policy(self.policy)  # validate eagerly

    @staticmethod
    def disabled() -> "CacheConfig":
        return CacheConfig(mode="off")


@dataclass
class _WriteBack:
    """One deferred up-transfer: the charge it would have made."""

    src: BufferHandle
    dst: BufferHandle
    dst_offset: int
    nbytes: int
    resources: list[str]
    duration: float
    phase: Phase
    ready: float
    label: str


class CacheManager:
    """Per-system cache state; every data-path entry point lives on
    :class:`~repro.core.system.System`, which drives this object."""

    def __init__(self, system: "System", config: CacheConfig) -> None:
        self.system = system
        self.config = config
        self.engine = PrefetchEngine(self)
        self._caches: dict[int, NodeCache | None] = {}
        #: lease buffer_id -> (cache, block) for pinned cache blocks, or
        #: (None, handle) for plain staging fetches (cache off / no room).
        self._leases: dict[int, tuple[NodeCache | None,
                                      CacheBlock | BufferHandle]] = {}
        #: lease buffer_id -> owning serve scope (job id), None outside
        #: serve mode.  Scoped end-of-run cleanup drops only the
        #: finishing job's leases, leaving concurrent jobs' pins alone.
        self._lease_scope: dict[int, str | None] = {}
        self._writebacks: dict[tuple, _WriteBack] = {}
        #: write-back counters for nodes without a cache of their own.
        self._wb_stats = CacheStats()

    # -- mode flags ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.config.mode != "off"

    @property
    def transparent(self) -> bool:
        """Should raw ``move``/``move_2d`` consult the cache?"""
        return self.config.mode == "full"

    @property
    def writeback(self) -> bool:
        return self.enabled and self.config.write_policy == "back"

    # -- per-node caches -------------------------------------------------

    def node_cache(self, node: TreeNode) -> NodeCache | None:
        """The cache of ``node`` (created on first use), or None when the
        node cannot host one (root, zero budget, caching off)."""
        if not self.enabled or node.is_root:
            return None
        if node.node_id not in self._caches:
            max_bytes = int(node.capacity * self.config.capacity_fraction)
            if max_bytes < 1:
                self._caches[node.node_id] = None
            else:
                ctx = PolicyContext(
                    refetch_cost=lambda b, _n=node: transfer_cost(
                        b.nbytes, _n.parent.device.spec, _n.uplink,
                        _n.device.spec),
                    future_distance=lambda key, _id=node.node_id:
                        self.engine.future_distance(_id, key))
                cache = NodeCache(
                    node, self.system.registry, make_policy(self.config.policy),
                    max_bytes, ctx)
                cache.tenant_source = lambda: getattr(
                    self.system, "current_tenant", "")
                cache.victim_guard = self._make_victim_guard(cache)
                cache.release_hook = getattr(
                    self.system, "release_cache_block", None)
                self._caches[node.node_id] = cache
        return self._caches[node.node_id]

    def _make_victim_guard(self, cache: NodeCache):
        """Eviction filter enforcing per-tenant cache reservations.

        A block owned by another tenant may only be evicted when that
        tenant's cached bytes on this node stay at or above its
        reservation afterwards.  Evicting one's own blocks, untagged
        blocks, or blocks of tenants without a reservation is always
        allowed.  Without a quota ledger the guard admits everything.
        """
        def guard(block: CacheBlock) -> bool:
            quotas = getattr(self.system, "tenant_quotas", None)
            if quotas is None or not block.tenant:
                return True
            requester = getattr(self.system, "current_tenant", "")
            if block.tenant == requester:
                return True
            reserved = quotas.cache_reservation(block.tenant)
            if reserved <= 0:
                return True
            cached = sum(b.nbytes for b in cache.blocks()
                         if b.tenant == block.tenant)
            return cached - block.nbytes >= reserved
        return guard

    def owns(self, handle: BufferHandle) -> bool:
        """Is ``handle`` the backing buffer of a cache block?  Such
        handles must not be released through ``System.release``."""
        # NodeCache has __len__, so an empty cache is falsy: every test
        # here must be `is None`, not truthiness.
        cache = self._caches.get(handle.node_id)
        if cache is None:
            return False
        return any(b.handle.buffer_id == handle.buffer_id
                   for b in cache.blocks())

    def reclaimable(self, node: TreeNode) -> int:
        cache = self._caches.get(node.node_id)
        return 0 if cache is None else cache.reclaimable_bytes

    def reclaim(self, node: TreeNode, nbytes: int) -> bool:
        """Evict until the node's allocator can fit ``nbytes`` (called by
        ``System.alloc`` on CapacityError before giving up)."""
        cache = self._caches.get(node.node_id)
        return cache is not None and cache.reclaim(nbytes)

    # -- accounting helpers ---------------------------------------------

    def count_hit(self, cache: NodeCache, nbytes: int) -> None:
        cache.stats.hits += 1
        cache.stats.hit_bytes += nbytes
        self.system.obs.count("cache_hits")

    def count_miss(self, cache: NodeCache, nbytes: int) -> None:
        cache.stats.misses += 1
        cache.stats.miss_bytes += nbytes
        self.system.obs.count("cache_misses")

    # -- demand fill / prefetch -----------------------------------------

    def fetch_into_cache(self, node: TreeNode, spec: FetchSpec, *,
                         prefetched: bool = False,
                         label: str = "") -> CacheBlock | None:
        """Admit a block for ``spec`` and bring its bytes down from the
        source node, charging block setup plus the real edge transfer.
        Returns None when the cache cannot host the region."""
        system = self.system
        system.registry.check_live(spec.src)
        cache = self.node_cache(node)
        if cache is None:
            return None
        src_node = system.node_of(spec.src)
        self._check_fill_source(node, src_node)
        block = cache.admit(spec, prefetched=prefetched)
        if block is None:
            return None
        tag = "prefetch" if prefetched else "fill"
        span = system.obs.open("prefetch" if prefetched else "cache_fill",
                               node_id=node.node_id)
        try:
            self._fill_block(node, src_node, spec, block,
                             system._edge_path(src_node, node),
                             label or f"cache-{tag}:"
                                      f"{spec.src.label or spec.src.buffer_id}")
            system.charge_runtime(1)
        finally:
            system.obs.close(span)
        if prefetched:
            cache.stats.prefetch_issued += 1
        return block

    def prefetch_batch(self, node: TreeNode, window: list[FetchSpec],
                       lookahead: int) -> int:
        """Issue up to ``lookahead`` planned fetches for ``node`` in one
        call (the prefetch engine's lookahead loop, hoisted down here).

        Residency and admission decisions run per spec in window order
        -- one admission's eviction can legitimately turn the next
        entry's lookup into a miss -- but the cache, source paths and
        attribute lookups are resolved once for the whole sweep, and
        every charge is made in exactly the per-spec order the
        one-call-per-spec loop used, so virtual results are
        bit-identical.  Returns the number of fetches issued.
        """
        cache = self.node_cache(node)
        if cache is None:
            return 0
        system = self.system
        lookup = cache.lookup
        admit = cache.admit
        paths: dict[int, list] = {}
        issued = 0
        for spec in window:
            if issued >= lookahead:
                break
            if spec.src.released or lookup(spec) is not None:
                continue
            src_node = system.node_of(spec.src)
            path = paths.get(src_node.node_id)
            if path is None:
                self._check_fill_source(node, src_node)
                path = system._edge_path(src_node, node)
                paths[src_node.node_id] = path
            block = admit(spec, prefetched=True)
            if block is None:
                break  # no room; trying further entries would thrash
            span = system.obs.open("prefetch", node_id=node.node_id)
            try:
                self._fill_block(node, src_node, spec, block, path,
                                 f"cache-prefetch:"
                                 f"{spec.src.label or spec.src.buffer_id}")
                system.charge_runtime(1)
            finally:
                system.obs.close(span)
            cache.stats.prefetch_issued += 1
            issued += 1
        return issued

    def _check_fill_source(self, node: TreeNode, src_node: TreeNode) -> None:
        if node not in src_node.children and \
                src_node not in node.path_to_root():
            raise CacheError(
                f"cache fill source on node {src_node.node_id} is not an "
                f"ancestor of node {node.node_id}")

    def _fill_block(self, node: TreeNode, src_node: TreeNode,
                    spec: FetchSpec, block: CacheBlock,
                    edge_path: list, label: str) -> None:
        """Charge block setup plus the edge transfers for one admitted
        block and move its bytes; shared by demand fills and the batched
        prefetch sweep."""
        from repro.core.system import SETUP_COST
        system = self.system
        system.timeline.charge(
            "host", SETUP_COST[node.device.kind], Phase.SETUP,
            label=f"cache-alloc@{node.node_id}")
        end = spec.src.ready_at
        for edge_src, edge_dst in edge_path:
            done = system._charge_edge(edge_src, edge_dst, spec.nbytes,
                                       ready=end, label=label)
            end = done.end
        # Physical fill: the source window lands packed row-major in the
        # block, as one vectored transfer.
        system._transfer(src_node, spec.src, spec.offset, spec.stride, node,
                         block.handle, 0, spec.row_bytes, spec.rows,
                         spec.row_bytes)
        spec.src.note_read(end)
        block.handle.note_write(end)
        if system.executor.asynchronous:
            system._note_fill(spec.src, spec.offset, spec.stride,
                              block.handle, 0, spec.row_bytes, spec.rows,
                              spec.row_bytes)

    # -- leases (System.fetch_down / fetch_release) ----------------------

    def lease_block(self, cache: NodeCache, block: CacheBlock) -> BufferHandle:
        cache.pin(block)
        self._leases[block.handle.buffer_id] = (cache, block)
        self._lease_scope[block.handle.buffer_id] = getattr(
            self.system, "serve_scope", None)
        return block.handle

    def lease_plain(self, handle: BufferHandle) -> BufferHandle:
        self._leases[handle.buffer_id] = (None, handle)
        self._lease_scope[handle.buffer_id] = getattr(
            self.system, "serve_scope", None)
        return handle

    def release_lease(self, handle: BufferHandle) -> None:
        entry = self._leases.pop(handle.buffer_id, None)
        self._lease_scope.pop(handle.buffer_id, None)
        if entry is None:
            raise CacheError(
                f"fetch_release of a handle that is not a live fetch lease: "
                f"{handle!r}")
        cache, obj = entry
        if cache is None:
            self.system.release(obj)
        else:
            cache.unpin(obj)

    # -- write-back ledger -----------------------------------------------

    def _wb_stats_for(self, node: TreeNode) -> CacheStats:
        cache = self.node_cache(node)
        return self._wb_stats if cache is None else cache.stats

    def defer_up(self, dst: BufferHandle, src: BufferHandle, nbytes: int, *,
                 dst_offset: int, src_offset: int,
                 label: str) -> "MoveResult":
        """Move the bytes of a child->parent transfer now, but record the
        virtual charge as an IOU instead of issuing it."""
        from repro.core.system import MoveResult, _transfer_phase
        system = self.system
        src_node, dst_node = system.node_of(src), system.node_of(dst)
        link = src_node.uplink
        assert link is not None
        bw = min(src_node.device.spec.read_bw, link.bandwidth,
                 dst_node.device.spec.write_bw)
        duration = (src_node.device.spec.latency + link.latency
                    + dst_node.device.spec.latency + nbytes / bw)
        resources = list(dict.fromkeys(
            [src_node.device.read_resource, link.resource_name("up"),
             dst_node.device.write_resource]))
        stats = self._wb_stats_for(src_node)
        key = (dst.buffer_id, dst_offset, nbytes)
        if key in self._writebacks:
            stats.writebacks_absorbed += 1
        wb = _WriteBack(
            src=src, dst=dst, dst_offset=dst_offset, nbytes=nbytes,
            resources=resources, duration=duration,
            phase=_transfer_phase(src_node.device.kind, dst_node.device.kind),
            ready=src.ready_at, label=label or "write-back")
        self._writebacks[key] = wb
        stats.writebacks_deferred += 1
        system._transfer(src_node, src, src_offset, nbytes, dst_node, dst,
                         dst_offset, nbytes, 1, nbytes)
        dst.bump_version()  # content changed; cached views are stale
        system.charge_runtime(1)
        return MoveResult(start=src.ready_at, end=src.ready_at,
                          nbytes=nbytes, hops=0)

    def flush_handle(self, handle: BufferHandle) -> None:
        """Flush IOUs whose source or destination is ``handle`` (called
        before a timed read/write of it and on release)."""
        if not self._writebacks:
            return
        due = [k for k, wb in self._writebacks.items()
               if handle.buffer_id in (wb.src.buffer_id, wb.dst.buffer_id)]
        for k in due:
            self._flush_one(self._writebacks.pop(k))

    def flush_all(self) -> None:
        for k in list(self._writebacks):
            self._flush_one(self._writebacks.pop(k))

    def _flush_one(self, wb: _WriteBack) -> None:
        system = self.system
        ready = max(wb.ready, wb.dst.last_read_end)
        done = system.timeline.charge_path(wb.resources, wb.duration,
                                           wb.phase, ready=ready,
                                           label=wb.label, nbytes=wb.nbytes)
        if not wb.src.released:
            wb.src.note_read(done.end)
        wb.dst.note_write(done.end)
        stats = self._wb_stats_for(system.node_of(wb.src)) \
            if not wb.src.released else self._wb_stats
        stats.writebacks_flushed += 1

    # -- lifecycle hooks --------------------------------------------------

    def on_release(self, handle: BufferHandle) -> None:
        """A buffer is being released: settle its IOUs and drop cached
        copies sourced from it."""
        self.flush_handle(handle)
        for cache in self._caches.values():
            if cache is not None:
                cache.invalidate_source(handle.buffer_id)

    def on_reset(self) -> None:
        """Timeline reset between measured phases: pending IOU readiness
        restarts at zero like every handle time."""
        for wb in self._writebacks.values():
            wb.ready = 0.0

    def end_run(self) -> None:
        """End-of-run cleanup: drop leases, settle the ledger, release
        every unpinned block, forget the prefetch plan.  Programs end
        with the same live-buffer census they had before caching.

        Under multi-tenant serving (``system.serve_scope`` set) the
        cleanup is *scoped*: only the finishing job's leases are
        dropped, and resident blocks stay cached for the jobs still
        running -- a job's ``finally: end_run()`` must not zero another
        job's pins or drop its prefetch plan.
        """
        scope = getattr(self.system, "serve_scope", None)
        for buffer_id in list(self._leases):
            if scope is not None and \
                    self._lease_scope.get(buffer_id) != scope:
                continue
            cache, obj = self._leases.pop(buffer_id)
            self._lease_scope.pop(buffer_id, None)
            if cache is None:
                if not obj.released:
                    self.system.release(obj)
            else:
                obj.pins = 0
        self.flush_all()
        if scope is not None:
            return
        for cache in self._caches.values():
            if cache is not None:
                cache.drop_all()
        self.engine.clear()

    # -- reporting ---------------------------------------------------------

    def stats_by_node(self) -> dict[int, CacheStats]:
        return {nid: c.stats for nid, c in sorted(self._caches.items())
                if c is not None}

    def total_stats(self) -> CacheStats:
        total = CacheStats()
        for c in self._caches.values():
            if c is not None:
                total.merge(c.stats)
        total.merge(self._wb_stats)
        return total

    def describe(self) -> str:
        cfg = self.config
        lines = [f"cache: mode={cfg.mode} policy={cfg.policy} "
                 f"write={cfg.write_policy} lookahead={cfg.lookahead} "
                 f"capacity_fraction={cfg.capacity_fraction}"]
        for nid, c in sorted(self._caches.items()):
            if c is None:
                continue
            lines.append(
                f"  node {nid} ({c.node.name}): budget={c.max_bytes}B "
                f"blocks={len(c)} cached={c.cached_bytes}B "
                f"{c.stats.summary()}")
        if len(lines) == 1:
            lines.append("  (no per-node caches instantiated)")
        return "\n".join(lines)
