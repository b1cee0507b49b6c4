"""Hierarchical buffer cache and prefetch engine for the memory tree.

Northup's premise is that data motion down the asymmetric memory tree
dominates out-of-core runtime (Figures 6-9).  This package gives every
interior memory node a first-class buffer cache, so bytes that already
made the trip down stay resident and a repeated ``move_data_down`` of
the same source region costs only bookkeeping:

* :class:`~repro.cache.manager.CacheManager` -- one per
  :class:`~repro.core.system.System`; owns a
  :class:`~repro.cache.block.NodeCache` per non-root memory node and
  runs every consult of them: the pinned lease behind
  ``System.fetch_down`` and the transparent consult/admit pair around
  a ``full``-mode move.
* :mod:`~repro.cache.policy` -- pluggable eviction: LRU, LFU,
  cost-aware (cheapest-to-refetch given the uplink bandwidth), and a
  Belady oracle that consults the prefetch plan for an upper bound.
* :class:`~repro.cache.prefetch.PrefetchEngine` -- consumes the
  decomposition plan (per-level lists of
  :class:`~repro.cache.spec.FetchSpec`) and issues lookahead
  parent->child transfers, so prefetch/compute overlap falls out of the
  virtual timelines.

Cache capacity is charged against the node's existing allocator, blocks
are real registered buffers on the node's backend (so the cache behaves
identically over ``MemBackend`` and ``FileBackend``), and validity is a
whole-buffer content version on the source handle.
"""

from repro.cache.block import CacheBlock, NodeCache
from repro.cache.manager import CacheConfig, CacheManager
from repro.cache.policy import (BeladyPolicy, CostAwarePolicy, EvictionPolicy,
                                LFUPolicy, LRUPolicy, make_policy)
from repro.cache.prefetch import PrefetchEngine
from repro.cache.spec import FetchSpec
from repro.cache.stats import CacheStats

__all__ = [
    "BeladyPolicy",
    "CacheBlock",
    "CacheConfig",
    "CacheManager",
    "CacheStats",
    "CostAwarePolicy",
    "EvictionPolicy",
    "FetchSpec",
    "LFUPolicy",
    "LRUPolicy",
    "NodeCache",
    "PrefetchEngine",
    "make_policy",
]
