"""The cache manager: one per :class:`~repro.core.system.System`.

Owns a lazily-created :class:`~repro.cache.block.NodeCache` for every
non-root memory node, the :class:`~repro.cache.prefetch.PrefetchEngine`
and the lease table behind ``System.fetch_down`` /
``System.fetch_release``, and runs every consult of the cache through
two front doors: :meth:`CacheManager.lease` (a pinned fetch) and the
:meth:`CacheManager.consult` / :meth:`CacheManager.admit` pair around a
transparent move.  Both share one hit step, so the consult order --
count, touch, hit charge, consume before admission, issue -- is known
here only.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
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
    from repro.core.system import System
    from repro.sim.timeline import Completion

CACHE_MODES = ("off", "explicit", "full")

#: Host-side bookkeeping cost of serving a cache hit (a map lookup and a
#: couple of counter updates -- same order as RUNTIME_OP_COST).
HIT_COST = 0.5e-6

#: The serving context read outside serving (``system.tenancy is None``).
_NOT_SERVING = SimpleNamespace(quotas=None, tenant="", scope=None)


@dataclass(frozen=True)
class CacheConfig:
    """Tunables of the per-node buffer caches."""

    #: "off" | "explicit" | "full" (see module docstring).
    mode: str = "explicit"
    #: Eviction policy name (see :func:`repro.cache.policy.make_policy`).
    policy: str = "lru"
    #: Planned fetches issued ahead of each demand access (0 disables).
    lookahead: int = 2
    #: Fraction of a node's capacity the cache may occupy.  Cached bytes
    #: always yield to application allocations (reclaim-on-demand).
    capacity_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in CACHE_MODES:
            raise ConfigError(
                f"unknown cache mode {self.mode!r}; choose from {CACHE_MODES}")
        if self.lookahead < 0:
            raise ConfigError(f"negative lookahead {self.lookahead}")
        if not 0.0 <= self.capacity_fraction <= 1.0:
            raise ConfigError(
                f"capacity_fraction {self.capacity_fraction} outside [0, 1]")
        make_policy(self.policy)  # validate eagerly

    @staticmethod
    def disabled() -> "CacheConfig":
        return CacheConfig(mode="off")


class CacheManager:
    """Per-system cache state; every data-path entry point lives on
    :class:`~repro.core.system.System`, which drives this object."""

    def __init__(self, system: "System", config: CacheConfig) -> None:
        self.system = system
        self.config = config
        self.engine = PrefetchEngine(self)
        self._caches: dict[int, NodeCache | None] = {}
        #: lease buffer_id -> (cache, block, scope) for pinned cache
        #: blocks, or (None, handle, scope) for plain staging fetches
        #: (cache off / no room); ``scope`` is the serving job's id.
        self._leases: dict[int, tuple[NodeCache | None,
                                      CacheBlock | BufferHandle,
                                      str | None]] = {}
        system.metrics.register_collector(self._collect_metrics)

    # -- mode flags ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.config.mode != "off"

    @property
    def transparent(self) -> bool:
        """Should raw ``move``/``move_2d`` consult the cache?"""
        return self.config.mode == "full"

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
                cache.tenant_source = lambda: self._tenancy().tenant
                cache.victim_guard = self._make_victim_guard(cache)
                cache.release_hook = self.system.dispatch.release_storage
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
            tenancy = self._tenancy()
            if tenancy.quotas is None or not block.tenant \
                    or block.tenant == tenancy.tenant:
                return True
            reserved = tenancy.quotas.cache_reservation(block.tenant)
            if reserved <= 0:
                return True
            cached = sum(b.nbytes for b in cache.blocks()
                         if b.tenant == block.tenant)
            return cached - block.nbytes >= reserved
        return guard

    def _tenancy(self):
        """The system's serving context, or :data:`_NOT_SERVING`."""
        return self.system.tenancy or _NOT_SERVING

    def owns(self, handle: BufferHandle) -> bool:
        """Is ``handle`` the backing buffer of a cache block?  Such
        handles must not be released through ``System.release``."""
        # NodeCache has __len__, so an empty cache is falsy: the test
        # here must be `is None`, not truthiness.
        cache = self._caches.get(handle.node_id)
        return cache is not None and handle.buffer_id in cache.handle_ids

    def reclaimable(self, node: TreeNode) -> int:
        cache = self._caches.get(node.node_id)
        return 0 if cache is None else cache.reclaimable_bytes

    def reclaim(self, node: TreeNode, nbytes: int) -> bool:
        """Evict until the node's allocator can fit ``nbytes`` (called by
        ``System.alloc`` on CapacityError before giving up)."""
        cache = self._caches.get(node.node_id)
        return cache is not None and cache.reclaim(nbytes)

    # -- the front doors --------------------------------------------------

    def lease(self, node: TreeNode, spec: FetchSpec,
              label: str) -> BufferHandle:
        """``System.fetch_down``'s consult: a pinned handle holding
        ``spec``'s window on ``node``.  A hit leases the resident block;
        a miss fills a block (:meth:`fetch_into_cache`) and leases it.
        With no cache, or no room even after eviction, the window is
        staged in a plain buffer that ``fetch_release`` frees again."""
        cache = self.node_cache(node)
        block = None if cache is None else cache.lookup(spec)
        if block is not None:
            self._hit(cache, block, node, spec, label)
        elif cache is not None:
            self._count_miss(cache, spec.nbytes)
            # Consume this access's plan entry before admission so the
            # policy ranks the incoming block by its next use.
            self.engine.consume(node.node_id, spec.key)
            block = self.fetch_into_cache(node, spec, label=label)
            if block is not None:
                cache.touch(block)  # demand admission is an access
                self.engine.issue(node)
        if block is not None:
            cache.pin(block)
            return self._lease(block.handle, cache, block)
        system = self.system
        src = spec.src
        handle = system.alloc(
            spec.nbytes, node,
            label=label or f"fetch:{src.label or src.buffer_id}")
        system.move_2d(handle, src, rows=spec.rows, row_bytes=spec.row_bytes,
                       src_offset=spec.offset, src_stride=spec.stride,
                       dst_offset=0, dst_stride=spec.row_bytes, label=label,
                       cache=False)
        return self._lease(handle, None, handle)

    def consult(self, src_node: TreeNode, dst_node: TreeNode,
                dst: BufferHandle, spec: FetchSpec, dst_offset: int,
                dst_stride: int,
                label: str) -> tuple[Completion | None, NodeCache | None]:
        """The transparent (``full`` mode) consult of an ancestor ->
        descendant move of ``spec``'s window into ``dst``: ``(completion,
        None)`` on a hit, the block already copied into ``dst``; ``(None,
        cache)`` on a miss, for :meth:`admit` once the caller has moved
        the bytes; ``(None, None)`` when no cache applies."""
        if src_node is dst_node or src_node not in dst_node.path_to_root():
            return None, None
        cache = self.node_cache(dst_node)
        if cache is None:
            return None, None
        block = cache.lookup(spec)
        if block is None:
            self._count_miss(cache, spec.nbytes)
            return None, cache
        return self._hit(cache, block, dst_node, spec, label, dst,
                         dst_offset, dst_stride), None

    def admit(self, cache: NodeCache, spec: FetchSpec, dst: BufferHandle,
              dst_offset: int, dst_stride: int, end: float) -> None:
        """After a transparent miss moved the bytes into ``dst`` (done
        at ``end``), admit the region by copying it locally into a
        cache block."""
        node = cache.node
        # Consume this access's plan entry first: admission policies
        # rank the incoming block by its *next* use.
        self.engine.consume(node.node_id, spec.key)
        block = cache.admit(spec)
        if block is not None:
            cache.touch(block)  # demand admission is an access
            self._charge_setup(node)
            bh = block.handle
            self.system.dispatch.transfer(node, dst, dst_offset, dst_stride,
                                          node, bh, 0, spec.row_bytes,
                                          spec.rows, spec.row_bytes)
            bh.note_write(end)
        self.engine.issue(node)

    def _hit(self, cache: NodeCache, block: CacheBlock, node: TreeNode,
             spec: FetchSpec, label: str, dst: BufferHandle | None = None,
             dst_offset: int = 0, dst_stride: int = 0) -> Completion:
        """The one hit step of both front doors: count, touch and charge
        the host bookkeeping; for a transparent hit (``dst`` given) copy
        the block out locally into ``dst`` and stamp both.  The prefetch
        engine hears of the access last, since a prefetch it issues may
        evict the block."""
        system = self.system
        cache.stats.hits += 1
        cache.stats.hit_bytes += spec.nbytes
        system.obs.count("cache_hits")
        cache.touch(block)
        bh = block.handle
        ready = 0.0 if dst is None else max(bh.ready_at, dst.last_read_end)
        done = system.timeline.charge(
            "host", HIT_COST, Phase.CACHE, ready=ready,
            label=f"cache-hit:{label or spec.src.label or spec.src.buffer_id}",
            nbytes=spec.nbytes)
        if dst is not None:
            system.dispatch.transfer(node, bh, 0, spec.row_bytes, node, dst,
                                     dst_offset, dst_stride, spec.rows,
                                     spec.row_bytes)
            bh.note_read(done.end)
            dst.note_write(done.end)
        system.charge_runtime(1)
        self.engine.notify_access(node, spec)
        return done

    def _count_miss(self, cache: NodeCache, nbytes: int) -> None:
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
        """Issue up to ``lookahead`` planned fetches for ``node``: a loop
        of :meth:`fetch_into_cache` over ``window`` in order, skipping
        specs whose source is released or that are already resident,
        and stopping at the first the cache cannot admit (trying further
        entries would thrash).  Returns the number of fetches issued."""
        cache = self.node_cache(node)
        if cache is None:
            return 0
        issued = 0
        for spec in window:
            if issued >= lookahead:
                break
            if spec.src.released or cache.lookup(spec) is not None:
                continue
            if self.fetch_into_cache(node, spec, prefetched=True) is None:
                break
            issued += 1
        return issued

    def _check_fill_source(self, node: TreeNode, src_node: TreeNode) -> None:
        if node not in src_node.children and \
                src_node not in node.path_to_root():
            raise CacheError(
                f"cache fill source on node {src_node.node_id} is not an "
                f"ancestor of node {node.node_id}")

    def _fill_block(self, node: TreeNode, src_node: TreeNode,
                    spec: FetchSpec, block: CacheBlock, label: str) -> None:
        """Charge block setup, then copy the source window packed
        row-major into the admitted block through the one timed copy."""
        system = self.system
        self._charge_setup(node)
        system._copy(src_node, spec.src, spec.offset, spec.stride, node,
                     block.handle, 0, spec.row_bytes, spec.rows,
                     spec.row_bytes, spec.src.ready_at, label)

    def _charge_setup(self, node: TreeNode) -> None:
        """Charge a new block's setup on the host."""
        from repro.core.system import SETUP_COST
        self.system.timeline.charge(
            "host", SETUP_COST[node.device.kind], Phase.SETUP,
            label=f"cache-alloc@{node.node_id}")

    # -- leases (System.fetch_down / fetch_release) ----------------------

    def _lease(self, handle: BufferHandle, cache: NodeCache | None,
               obj: CacheBlock | BufferHandle) -> BufferHandle:
        self._leases[handle.buffer_id] = (cache, obj,
                                          self._tenancy().scope)
        return handle

    def release_lease(self, handle: BufferHandle) -> None:
        entry = self._leases.pop(handle.buffer_id, None)
        if entry is None:
            raise CacheError(
                f"fetch_release of a handle that is not a live fetch lease: "
                f"{handle!r}")
        cache, obj, _scope = entry
        if cache is None:
            self.system.release(obj)
        else:
            cache.unpin(obj)

    # -- pinned by the layer tracer -------------------------------------

    def defer_up(self, *args, **kwargs) -> None:
        """Does nothing: kept, with its alias ``flush_all``, only because
        ``benchmarks/perf/layers.py`` patches both by name; ROADMAP item
        21(a) removes them."""

    flush_all = defer_up

    # -- lifecycle hooks --------------------------------------------------

    def on_release(self, handle: BufferHandle) -> None:
        """A buffer is being released: drop cached copies sourced from
        it."""
        for cache in self._caches.values():
            if cache:   # None or empty: nothing to drop
                cache.invalidate_source(handle.buffer_id)

    def end_run(self) -> None:
        """End-of-run cleanup: drop leases, release every unpinned
        block, forget the prefetch plan.  Programs end with the same
        live-buffer census they had before caching.

        Under multi-tenant serving (a ``system.tenancy`` scope set) the
        cleanup is *scoped*: only the finishing job's leases are
        dropped, and resident blocks stay cached for the jobs still
        running -- a job's ``finally: end_run()`` must not zero another
        job's pins or drop its prefetch plan.
        """
        scope = self._tenancy().scope
        for buffer_id, (cache, obj, owner) in list(self._leases.items()):
            if scope is not None and owner != scope:
                continue
            del self._leases[buffer_id]
            if cache is None:
                if not obj.released:
                    self.system.release(obj)
            else:
                obj.pins = 0
        if scope is not None:
            return
        for cache in self._caches.values():
            if cache is not None:
                cache.drop_all()
        self.engine.clear()

    # -- reporting ---------------------------------------------------------

    def _collect_metrics(self, reg) -> None:
        """The ``cache_*`` gauges, one series per node cache."""
        for nid, c in sorted(self._caches.items()):
            if c is None:
                continue
            for name in ("hits", "misses", "hit_bytes", "miss_bytes",
                         "evictions", "admissions", "prefetch_issued",
                         "prefetch_used", "prefetch_wasted"):
                reg.gauge(f"cache_{name}", getattr(c.stats, name),
                          labels={"node": str(nid)})

    def total_stats(self) -> CacheStats:
        total = CacheStats()
        for c in self._caches.values():
            if c is not None:
                total.merge(c.stats)
        return total

    def describe(self) -> str:
        cfg = self.config
        lines = [f"cache: mode={cfg.mode} policy={cfg.policy} "
                 f"lookahead={cfg.lookahead} "
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
