"""The ``serve_mix`` load: a frozen copy of the serve-throughput mix.

The job classes, tenants and the injected elephant are those of
``repro.serve.bench`` at full scale (gemm64 : sort50k : spmv1024 :
hotspot128 = 2:3:3:2 mice plus one GEMM elephant), copied here so a
refactor of that module cannot change what this benchmark serves.

One deliberate difference: the mouse classes appear in *exactly* the
2:3:3:2 proportion and only their order and arrival instants are drawn
from the seed.  ``poisson_arrivals`` draws the class of every arrival
independently, so the amount of work in the stream would change with
the seed by several percent -- more than the bound ``run_s`` is held
to.  Arrivals are open-loop Poisson in *virtual* time; wall-clock
``run_s`` is how fast the service loop chews the stream.
"""

from __future__ import annotations

import numpy as np

from repro.serve.arrivals import Arrival
from repro.serve.job import JobSpec
from repro.serve.quota import TenantQuota

#: Mouse classes in mix order with their weights (out of 10).
MIX_WEIGHTS = (("gemm", 2), ("sort", 3), ("spmv", 3), ("hotspot", 2))


def tenant_quotas() -> dict[str, TenantQuota]:
    """Three equal-weight tenants; ``beta`` (the mice) holds a cache
    reservation so the elephant cannot evict it to zero."""
    return {
        "acme": TenantQuota(weight=1.0),
        "beta": TenantQuota(weight=1.0, cache_reservation=64 * 1024),
        "gamma": TenantQuota(weight=1.0),
    }


def mouse_specs(sizes: dict, seed: int) -> dict[str, JobSpec]:
    """The four small job classes.  GEMM and HotSpot pin their tile
    shapes so a served run's operation order matches its solo run."""
    g, h = sizes["gemm"], sizes["hotspot"]
    return {
        "gemm": JobSpec(
            "gemm", tenant="acme", priority=0, label="mouse",
            params=dict(m=g["n"], k=g["n"], n=g["n"], seed=seed + 3,
                        force_tiles=(g["tile"], g["tile"], g["n"], True))),
        "sort": JobSpec("sort", tenant="beta", priority=0, label="mouse",
                        params=dict(n=sizes["sort_n"], seed=seed + 7)),
        "spmv": JobSpec("spmv", tenant="beta", priority=0, label="mouse",
                        params=dict(nrows=sizes["spmv_rows"], seed=seed + 11,
                                    preset="circuit-like")),
        "hotspot": JobSpec(
            "hotspot", tenant="gamma", priority=1, label="mouse",
            params=dict(n=h["n"], iterations=1, seed=seed + 5,
                        force_tile=h["tile"])),
    }


def elephant_spec(sizes: dict, seed: int) -> JobSpec:
    """One GEMM one to two orders of magnitude bigger than any mouse."""
    e = sizes["elephant"]
    return JobSpec(
        "gemm", tenant="acme", priority=0, label="elephant",
        params=dict(m=e["n"], k=e["n"], n=e["n"], seed=seed + 3,
                    force_tiles=(e["tile"], e["tile"], e["n"], True)))


def build_stream(sizes: dict, seed: int) -> list[Arrival]:
    """``sizes['jobs']`` arrivals: the mice at exponential gaps of mean
    ``1 / rate`` virtual seconds, plus the elephant at a fixed early
    instant (so nearest-rank p99 lands on a mouse)."""
    mice = sizes["jobs"] - 1
    specs = mouse_specs(sizes, seed)
    total = sum(w for _, w in MIX_WEIGHTS)
    classes: list[str] = []
    for name, weight in MIX_WEIGHTS:
        classes += [name] * (mice * weight // total)
    # Rounding remainder goes to the first classes, deterministically.
    for name, _ in MIX_WEIGHTS:
        if len(classes) == mice:
            break
        classes.append(name)
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / sizes["rate"], size=mice))
    order = rng.permutation(mice)
    stream = [Arrival(vt=float(t), spec=specs[classes[int(i)]])
              for t, i in zip(times, order)]
    stream.append(Arrival(vt=sizes["elephant"]["at"],
                          spec=elephant_spec(sizes, seed)))
    return stream
