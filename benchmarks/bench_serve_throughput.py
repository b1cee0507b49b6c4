"""Multi-tenant serve throughput: FIFO vs fair-share vs priority.

Thin shim over ``benchmarks/scenarios/serve_throughput.toml``: one
seeded Poisson stream of mixed GEMM / HotSpot / SpMV / sort jobs from
three tenants -- plus one injected elephant GEMM -- is served on
identical fresh systems, one cell per scheduling policy (see
:mod:`repro.serve.bench`).  Reported numbers are all virtual: jobs per
virtual second, p50/p99 job latency, p99 queue wait;
``BENCH_serve.json`` is this scenario's ``experiment collect`` document.

Two properties are asserted, not just reported:

* **isolation pays**: fair share beats FIFO on whole-population p99
  job latency (head-of-line blocking behind the elephant is what FIFO
  loses);
* **serving is free of numeric drift**: every served job's result
  bytes equal a solo in-order run of the same spec on a fresh system.
"""

from repro.bench.cells import run_records


def test_serve_throughput(tmp_path):
    records = run_records("serve_throughput", str(tmp_path / "serve"))
    policies = {r["policy"]: r for r in records}
    assert sorted(policies) == ["fair", "fifo", "priority"]
    for name, row in policies.items():
        assert row["jobs_done"] == row["arrivals"]["count"], (
            f"{name}: {row['jobs_done']} jobs done of "
            f"{row['arrivals']['count']} submitted")
        assert row["jobs_verified_bit_identical"] == row["jobs_done"], (
            f"{name}: only {row['jobs_verified_bit_identical']} of "
            f"{row['jobs_done']} jobs matched their solo in-order run")
    # Fair share pulls the contended-population p99 below FIFO's
    # head-of-line-blocked tail.
    fifo, fair = policies["fifo"], policies["fair"]
    assert fair["p99_latency_s"] < fifo["p99_latency_s"], (
        f"fair p99 {fair['p99_latency_s']}s did not beat "
        f"fifo p99 {fifo['p99_latency_s']}s")
    # Work conservation: total throughput is policy-invariant.
    rates = [row["virtual_jobs_per_s"] for row in policies.values()]
    assert max(rates) - min(rates) < 1e-6 * max(rates)
