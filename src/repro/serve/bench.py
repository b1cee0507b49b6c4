"""The serve throughput bench: FIFO vs fair-share vs priority.

One seeded Poisson arrival stream of mixed GEMM / HotSpot / SpMV / sort
jobs from three tenants is served three times -- once per scheduling
policy -- on identical fresh systems.  The stream has a deliberate
elephant (a multi-chunk GEMM from tenant ``acme``) amid mice (sort,
SpMV, HotSpot), so FIFO's head-of-line blocking shows up directly in
the mouse tail: fair share interleaves the elephant's nodes with the
mice and pulls p99 job latency down at the same total work.

Everything is virtual-time: throughput is virtual jobs per virtual
second, latencies are virtual seconds.  Every served job is verified
bit-identical to a solo in-order run of the same spec on a fresh
system before its buffers are released.

Run as ``python -m repro serve-bench`` or through
``benchmarks/bench_serve_throughput.py`` (which writes the committed
``BENCH_serve.json``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from repro.bench import configs
from repro.core.system import System
from repro.errors import ConfigError
from repro.serve.arrivals import poisson_arrivals
from repro.serve.job import JobSpec, JobState
from repro.serve.quota import TenantQuota
from repro.serve.service import JobService, ServeConfig, _pct

POLICIES = ("fifo", "fair", "priority")

#: Scale knobs.  ``ci`` keeps the CI smoke job under a few seconds;
#: ``full`` is the committed configuration.  ``count`` is the total
#: stream length including the one injected elephant; ``rate`` sizes
#: the mouse load to roughly 60% utilisation so the elephant's
#: monopoly -- not a standing queue -- is what inflates the FIFO tail.
SCALES: dict[str, dict] = {
    "ci": dict(count=12, rate=2000.0, max_pending=32, max_live_per_tenant=3,
               elephant=dict(m=128, k=128, n=128, tile=32, at=0.001),
               gemm=dict(m=48, k=48, n=48, tile=32),
               sort_n=20_000, spmv_rows=512, hotspot=dict(n=64, tile=32)),
    "full": dict(count=120, rate=1000.0, max_pending=64,
                 max_live_per_tenant=3,
                 elephant=dict(m=512, k=512, n=512, tile=32, at=0.002),
                 gemm=dict(m=64, k=64, n=64, tile=32),
                 sort_n=50_000, spmv_rows=1024,
                 hotspot=dict(n=128, tile=64)),
}


def pick_scale(name: str | None = None) -> str:
    """CLI arg beats the ``REPRO_SERVE_SCALE`` env var beats ``full``."""
    name = name or os.environ.get("REPRO_SERVE_SCALE", "full")
    if name not in SCALES:
        raise ConfigError(f"unknown serve scale {name!r}; known: "
                          f"{sorted(SCALES)}")
    return name


def tenant_quotas() -> dict[str, TenantQuota]:
    """The bench's three tenants.

    Equal weights: fairness differences in the results come from the
    policies, not the weights.  ``beta`` (the mice) carries a cache
    reservation so the elephant cannot evict it to zero.
    """
    return {
        "acme": TenantQuota(weight=1.0),
        "beta": TenantQuota(weight=1.0, cache_reservation=64 * 1024),
        "gamma": TenantQuota(weight=1.0),
    }


def job_mix(scale: dict) -> list[tuple[JobSpec, float]]:
    """The weighted *mouse* mix: four small job classes.

    GEMM and HotSpot pin their tile shapes (see
    :mod:`repro.serve.job`) so a served run's operation sequence --
    and float accumulation order -- matches its solo run exactly.
    """
    g = scale["gemm"]
    h = scale["hotspot"]
    gemm_mouse = JobSpec(
        "gemm", tenant="acme", priority=0, label="mouse",
        params=dict(m=g["m"], k=g["k"], n=g["n"], seed=3,
                    force_tiles=(g["tile"], g["tile"], g["k"], True)))
    sort_mouse = JobSpec("sort", tenant="beta", priority=0, label="mouse",
                         params=dict(n=scale["sort_n"], seed=7))
    spmv_mouse = JobSpec("spmv", tenant="beta", priority=0, label="mouse",
                         params=dict(nrows=scale["spmv_rows"], seed=11,
                                     preset="circuit-like"))
    hot_mouse = JobSpec("hotspot", tenant="gamma", priority=1, label="mouse",
                        params=dict(n=h["n"], iterations=1, seed=5,
                                    force_tile=h["tile"]))
    return [(gemm_mouse, 2.0), (sort_mouse, 3.0),
            (spmv_mouse, 3.0), (hot_mouse, 2.0)]


def elephant_spec(scale: dict) -> JobSpec:
    """The injected elephant: a GEMM 1-2 orders of magnitude bigger
    than any mouse, from the ``acme`` tenant."""
    e = scale["elephant"]
    return JobSpec(
        "gemm", tenant="acme", priority=0, label="elephant",
        params=dict(m=e["m"], k=e["k"], n=e["n"], seed=3,
                    force_tiles=(e["tile"], e["tile"], e["k"], True)))


def build_stream(scale: dict, *, seed: int) -> list:
    """The bench arrival stream: ``count - 1`` Poisson mice plus one
    elephant injected at a fixed early instant.

    The injection (rather than a rare mix entry) keeps exactly one
    elephant in every seed's stream, so nearest-rank p99 over the
    whole population lands on a *mouse* -- the statistic head-of-line
    blocking actually moves.
    """
    from repro.serve.arrivals import Arrival
    mice = poisson_arrivals(job_mix(scale), rate=scale["rate"],
                            count=scale["count"] - 1, seed=seed)
    return mice + [Arrival(vt=scale["elephant"]["at"],
                           spec=elephant_spec(scale))]


def _fresh_system(executor: str | None = None) -> System:
    # A backend *name* makes the pool system-owned: System.close()
    # tears it down with the rest of the run.
    return System(configs.scaled_apu_tree("ssd"), executor=executor)


class _StatusBoard:
    """Mutable holder the status endpoint reads through.

    The bench serves three streams on three short-lived services;
    binding the HTTP server to the board (not a service) lets one
    endpoint follow whichever service is live, and keeps each policy's
    final snapshot for the SLO gate after teardown.
    """

    def __init__(self) -> None:
        self.service: JobService | None = None
        self.final: dict[str, dict] = {}

    def status(self) -> dict:
        svc = self.service
        if svc is None:
            from repro.obs.live import STATUS_SCHEMA
            return {"schema": STATUS_SCHEMA,
                    "service": {"policy": "idle"}, "tenants": {}}
        return svc.status()


class SoloOracle:
    """Solo in-order results, one fresh system per distinct spec.

    Specs are frozen dataclasses; jobs drawn from the same mix entry
    share one solo run.
    """

    def __init__(self) -> None:
        self._cache: dict[str, bytes] = {}

    @staticmethod
    def _key(spec: JobSpec) -> str:
        # Specs carry a params dict, so they aren't hashable themselves.
        return f"{spec.app}|{sorted(spec.params.items())!r}"

    def result_bytes(self, spec: JobSpec) -> bytes:
        key = self._key(spec)
        if key not in self._cache:
            system = _fresh_system()
            try:
                app = spec.build(system)
                app.run(system)
                self._cache[key] = np.ascontiguousarray(
                    app.result()).tobytes()
                app.release_root_buffers()
            finally:
                system.close()
        return self._cache[key]


def run_policy(policy: str, *, scale_name: str, seed: int = 0,
               oracle: SoloOracle | None = None,
               reports_dir: str | None = None,
               executor: str | None = None,
               board: _StatusBoard | None = None,
               wall: dict | None = None) -> dict:
    """Serve the seeded stream under one policy on a fresh system.

    Returns the BENCH payload entry for that policy.  When ``oracle``
    is given, every DONE job's result bytes are compared against the
    solo in-order run of its spec; a mismatch raises.  ``executor``
    picks the compute backend (``inline`` when None); every statistic
    in the payload is virtual, so the payload must be byte-identical
    across backends.  ``board`` exposes the live service through the
    bench's status endpoint and keeps the final snapshot for SLO gates.
    ``wall`` receives this policy's wall-clock serving rate (kept out of
    the payload entry, which stays deterministic).
    """
    scale = SCALES[scale_name]
    system = _fresh_system(executor)
    service = JobService(system, ServeConfig(
        policy=policy, seed=seed, max_pending=scale["max_pending"],
        max_live_per_tenant=scale["max_live_per_tenant"],
        quotas=tenant_quotas()))
    if board is not None:
        board.service = service
    stream = build_stream(scale, seed=seed)
    t0 = time.perf_counter()
    jobs = service.run(stream)
    wall_s = time.perf_counter() - t0
    if wall is not None:
        wall[policy] = {"wall_jobs_per_s": len(jobs) / wall_s,
                        "wall_us_per_grant": 1e6 * wall_s / service._grants}
    try:
        if board is not None:
            board.final[policy] = service.status()
        done = [j for j in jobs if j.state is JobState.DONE]
        failed = [j for j in jobs if j.state is JobState.FAILED]
        if failed:
            raise failed[0].error
        verified = 0
        if oracle is not None:
            for job in done:
                served = np.ascontiguousarray(job.app.result()).tobytes()
                if served != oracle.result_bytes(job.spec):
                    raise AssertionError(
                        f"{job.job_id} under {policy!r} diverged from its "
                        f"solo in-order run")
                verified += 1
        if reports_dir is not None:
            os.makedirs(reports_dir, exist_ok=True)
            for job in done:
                service.job_report(job).save(
                    os.path.join(reports_dir, f"{policy}_{job.job_id}.json"))
    finally:
        if board is not None:
            board.service = None
        for job in jobs:
            if job.app is not None:
                job.app.release_root_buffers()
        system.close()

    lat = sorted(j.latency for j in done)
    waits = sorted(j.queue_wait for j in done)
    finish = max((j.finish_vt for j in done), default=0.0)
    mice = sorted(j.latency for j in done if j.spec.label == "mouse")
    high = sorted(j.latency for j in done if j.spec.priority > 0)
    busy_total = sum(service._tenant_busy.values())
    return {
        "policy": policy,
        "jobs_done": len(done),
        "jobs_rejected": service.admission.rejected,
        "grants": service._grants,
        "virtual_jobs_per_s": (len(done) / finish) if finish > 0 else 0.0,
        "makespan_s": finish,
        "p50_latency_s": _pct(lat, 50.0),
        "p99_latency_s": _pct(lat, 99.0),
        "p50_queue_wait_s": _pct(waits, 50.0),
        "p99_queue_wait_s": _pct(waits, 99.0),
        "mouse_p99_latency_s": _pct(mice, 99.0),
        "high_priority_p99_latency_s": _pct(high, 99.0),
        "tenant_busy_share": {
            t: (b / busy_total if busy_total > 0 else 0.0)
            for t, b in sorted(service._tenant_busy.items())},
        "dispatch_digest": hashlib.sha256(
            "\n".join(service.dispatch_log).encode()).hexdigest(),
        "jobs_verified_bit_identical": verified,
    }


def run_bench(*, scale_name: str, seed: int = 0, verify: bool = True,
              reports_dir: str | None = None,
              board: _StatusBoard | None = None) -> dict:
    """The full bench: every policy over the same arrival stream."""
    oracle = SoloOracle() if verify else None
    scale = SCALES[scale_name]
    wall: dict = {}
    payload = {
        "bench": "serve_throughput",
        "scale": scale_name,
        "seed": seed,
        "arrivals": {"rate_jobs_per_s": scale["rate"],
                     "count": scale["count"]},
        "policies": {p: run_policy(p, scale_name=scale_name, seed=seed,
                                   oracle=oracle, reports_dir=reports_dir,
                                   board=board, wall=wall)
                     for p in POLICIES},
        # Informational, host-dependent: how fast the loop chewed the
        # stream.  ``meta`` subtrees are skipped by ``obs.regress``.
        "meta": {"wall": wall},
    }
    fifo = payload["policies"]["fifo"]
    fair = payload["policies"]["fair"]
    payload["contention"] = {
        "fifo_p99_latency_s": fifo["p99_latency_s"],
        "fair_p99_latency_s": fair["p99_latency_s"],
        "fair_beats_fifo_p99": fair["p99_latency_s"] < fifo["p99_latency_s"],
    }
    return payload


def format_table(payload: dict) -> str:
    head = (f"{'policy':<9} {'jobs/s':>10} {'p50 lat':>10} {'p99 lat':>10} "
            f"{'p99 wait':>10} {'grants':>7}")
    lines = [head, "-" * len(head)]
    for name, row in payload["policies"].items():
        lines.append(
            f"{name:<9} {row['virtual_jobs_per_s']:>10.2f} "
            f"{row['p50_latency_s']:>10.6f} {row['p99_latency_s']:>10.6f} "
            f"{row['p99_queue_wait_s']:>10.6f} {row['grants']:>7d}")
    c = payload["contention"]
    lines.append(f"fair vs fifo p99: {c['fair_p99_latency_s']:.6f}s vs "
                 f"{c['fifo_p99_latency_s']:.6f}s "
                 f"({'better' if c['fair_beats_fifo_p99'] else 'NOT better'})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve-bench",
        description="multi-tenant serve throughput bench "
                    "(FIFO vs fair-share vs priority)")
    parser.add_argument("--scale", choices=sorted(SCALES), default=None,
                        help="bench scale (default: $REPRO_SERVE_SCALE "
                             "or 'full')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="result path (default: ./BENCH_serve.json)")
    parser.add_argument("--reports-dir", default=None,
                        help="also write a per-job RunReport JSON per "
                             "served job under this directory")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the solo bit-identity cross-check")
    parser.add_argument("--status-port", type=int, default=None,
                        metavar="PORT",
                        help="serve live /status over HTTP while the "
                             "bench runs (0 = auto-assign) and scrape "
                             "it through the socket")
    parser.add_argument("--status-snapshot", default=None, metavar="FILE",
                        help="write the last scraped /status document "
                             "to FILE (schema-checked; implies a "
                             "status server on an auto port)")
    parser.add_argument("--slo", default=None, metavar="POLICY.json",
                        help="gate every policy's final status snapshot "
                             "on this SLO policy; any miss exits 1")
    args = parser.parse_args(argv)
    scale_name = pick_scale(args.scale)

    want_status = (args.status_port is not None
                   or args.status_snapshot is not None
                   or args.slo is not None)
    board = _StatusBoard() if want_status else None
    server = scraper = None
    scraped: dict = {}
    if args.status_port is not None or args.status_snapshot is not None:
        import threading

        from repro.obs.live import StatusServer, fetch_status
        server = StatusServer(board.status,
                              port=args.status_port or 0)
        print(f"status endpoint: {server.url}/status")
        stop = threading.Event()

        def _scrape() -> None:
            while not stop.is_set():
                try:
                    doc = fetch_status(server.url)
                except OSError:
                    pass
                else:
                    # Keep the busiest frame seen over the wire: the
                    # artifact should show the service mid-flight.
                    if doc.get("service", {}).get("live_jobs", 0) >= \
                            scraped.get("service", {}).get("live_jobs", 0):
                        scraped.clear()
                        scraped.update(doc)
                stop.wait(0.02)

        scraper = threading.Thread(target=_scrape, daemon=True,
                                   name="repro-status-scrape")
        scraper.start()
    try:
        payload = run_bench(scale_name=scale_name, seed=args.seed,
                            verify=not args.no_verify,
                            reports_dir=args.reports_dir, board=board)
    finally:
        if scraper is not None:
            stop.set()
            scraper.join(timeout=2.0)
        if server is not None:
            server.close()
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(format_table(payload))
    print(f"wrote {args.out}")
    if args.status_snapshot is not None:
        from repro.obs.live import STATUS_SCHEMA
        doc = scraped or (board.final.get(POLICIES[-1]) if board else None)
        if not doc:
            print("no status snapshot was scraped", file=sys.stderr)
            return 1
        if doc.get("schema") != STATUS_SCHEMA:
            print(f"status schema mismatch: {doc.get('schema')!r} != "
                  f"{STATUS_SCHEMA!r}", file=sys.stderr)
            return 1
        with open(args.status_snapshot, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.status_snapshot} "
              f"(schema {doc['schema']}, scraped over HTTP: "
              f"{bool(scraped)})")
    if args.slo is not None:
        from repro.obs.health import SLOPolicy
        slo = SLOPolicy.from_json(args.slo)
        failed = False
        for policy, doc in sorted(board.final.items()):
            report = slo.evaluate(doc)
            print(f"[{policy}] {report.table()}")
            failed = failed or not report.ok
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
