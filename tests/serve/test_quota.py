"""Tenant quotas: allocation caps through System.alloc, ledger
accounting, and cache reservations guarding eviction."""

import pytest

from repro.cache.manager import CacheConfig
from repro.core.system import System
from repro.errors import QuotaError
from repro.memory.units import KB, MB
from repro.serve.quota import QuotaLedger, Tenancy, TenantQuota
from repro.topology.builders import apu_two_level


def make_system(**kw):
    tree = apu_two_level(storage_capacity=kw.pop("capacity", 8 * MB),
                         staging_bytes=kw.pop("staging", 256 * KB))
    return System(tree, **kw)


# -- ledger unit behaviour ----------------------------------------------


def test_ledger_caps_and_accounts():
    ledger = QuotaLedger({"a": TenantQuota(alloc_bytes=100)})

    class H:
        buffer_id = 1
        nbytes = 60

    ledger.check("a", 60)
    ledger.on_alloc("a", H())
    assert ledger.used("a") == 60
    with pytest.raises(QuotaError) as err:
        ledger.check("a", 50)
    assert err.value.tenant == "a"
    assert err.value.used == 60
    assert err.value.limit == 100
    ledger.on_release(H())
    assert ledger.used("a") == 0
    ledger.check("a", 100)


def test_unknown_and_uncapped_tenants_pass():
    ledger = QuotaLedger({"a": TenantQuota(alloc_bytes=None)})
    ledger.check("a", 1 << 60)
    ledger.check("stranger", 1 << 60)
    ledger.check("", 1 << 60)
    assert ledger.weight("stranger") == 1.0
    assert ledger.cache_reservation("stranger") == 0


# -- System integration -------------------------------------------------


def test_alloc_enforces_tenant_cap():
    sys_ = make_system()
    try:
        sys_.tenancy = Tenancy(QuotaLedger(
            {"a": TenantQuota(alloc_bytes=64 * KB)}), tenant="a")
        h = sys_.alloc(48 * KB, sys_.tree.root, label="within")
        with pytest.raises(QuotaError):
            sys_.alloc(32 * KB, sys_.tree.root, label="over")
        sys_.release(h)
        # Released bytes return to the budget.
        h2 = sys_.alloc(60 * KB, sys_.tree.root, label="again")
        sys_.release(h2)
    finally:
        sys_.close()


def test_other_tenants_unaffected_by_a_cap():
    sys_ = make_system()
    try:
        sys_.tenancy = Tenancy(QuotaLedger(
            {"a": TenantQuota(alloc_bytes=4 * KB)}), tenant="b")
        h = sys_.alloc(64 * KB, sys_.tree.root, label="b-large")
        sys_.release(h)
    finally:
        sys_.close()


# -- cache reservation victim guard -------------------------------------


def _fill_and_fetch(sys_, child, nbytes, seed, count, tenant):
    import numpy as np
    sys_.tenancy.tenant = tenant
    rng = np.random.default_rng(seed)
    src = sys_.alloc(nbytes * count, sys_.tree.root, label=f"src-{tenant}")
    sys_.preload(src, rng.integers(0, 255, nbytes * count, dtype=np.uint8))
    for i in range(count):
        h = sys_.fetch_down(child, src, nbytes=nbytes, src_offset=i * nbytes)
        sys_.fetch_release(h)
    return src


def test_reservation_floors_other_tenants_eviction():
    sys_ = make_system(cache=CacheConfig(lookahead=0), staging=64 * KB)
    try:
        child = sys_.tree.root.children[0]
        cache = sys_.cache.node_cache(child)
        reservation = 3 * (4 * KB)
        sys_.tenancy = Tenancy(QuotaLedger(
            {"a": TenantQuota(cache_reservation=reservation),
             "b": TenantQuota()}))
        # Tenant a fills the cache with 4 KB blocks...
        _fill_and_fetch(sys_, child, 4 * KB, seed=1,
                        count=cache.max_bytes // (4 * KB), tenant="a")
        a_bytes = sum(b.nbytes for b in cache.blocks() if b.tenant == "a")
        assert a_bytes >= reservation
        # ...then tenant b applies heavy pressure.
        _fill_and_fetch(sys_, child, 4 * KB, seed=2,
                        count=4 * (cache.max_bytes // (4 * KB)), tenant="b")
        a_after = sum(b.nbytes for b in cache.blocks() if b.tenant == "a")
        # b evicted a down to -- but never below -- a's reservation.
        assert a_after >= reservation
        assert a_after < a_bytes
    finally:
        sys_.close()


def test_no_reservation_means_full_eviction_allowed():
    sys_ = make_system(cache=CacheConfig(lookahead=0), staging=64 * KB)
    try:
        child = sys_.tree.root.children[0]
        cache = sys_.cache.node_cache(child)
        sys_.tenancy = Tenancy(QuotaLedger({"a": TenantQuota(),
                                            "b": TenantQuota()}))
        _fill_and_fetch(sys_, child, 4 * KB, seed=1,
                        count=cache.max_bytes // (4 * KB), tenant="a")
        _fill_and_fetch(sys_, child, 4 * KB, seed=2,
                        count=4 * (cache.max_bytes // (4 * KB)), tenant="b")
        a_after = sum(b.nbytes for b in cache.blocks() if b.tenant == "a")
        assert a_after == 0
    finally:
        sys_.close()
