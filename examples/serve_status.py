#!/usr/bin/env python
"""A served job stream with a live status endpoint and per-job reports.

Twelve jobs from three tenants (eleven mice and one elephant GEMM) are
served under fair share while the service answers ``/status``,
``/metrics`` and ``/healthz`` over HTTP.  The final ``/status`` document
is fetched through the socket and written next to one RunReport per
served job, so it can be gated against a declarative SLO policy:

    python examples/serve_status.py out/
    python -m repro regress --slo examples/slo_ci.json out/status.json

Latencies in the document are virtual seconds -- deterministic, so an
SLO miss is a bug, not noise.

Run:  python examples/serve_status.py [OUTDIR]
"""

import json
import os
import sys
import tempfile

import numpy as np

from repro.bench import configs
from repro.core.system import System
from repro.obs.live import STATUS_SCHEMA, fetch_status
from repro.serve import JobService, JobState, ServeConfig
from repro.serve.bench import SoloOracle, build_stream, tenant_quotas

STREAM = dict(count=12, rate=2000.0,
              elephant=dict(m=128, k=128, n=128, tile=32, at=0.001),
              gemm=dict(m=48, k=48, n=48, tile=32),
              sort_n=20_000, spmv_rows=512, hotspot=dict(n=64, tile=32))


def main(outdir: str) -> None:
    os.makedirs(os.path.join(outdir, "reports"), exist_ok=True)
    system = System(configs.scaled_apu_tree("ssd"))
    service = JobService(system, ServeConfig(
        policy="fair", max_live_per_tenant=3, quotas=tenant_quotas()))
    server = service.start_status_server()
    print(f"status endpoint: {server.url}/status")
    try:
        jobs = service.run(build_stream(STREAM, seed=0))
        status = fetch_status(server.url)
        assert status["schema"] == STATUS_SCHEMA
        oracle = SoloOracle()
        for job in jobs:
            assert job.state is JobState.DONE, (job.job_id, job.error)
            served = np.ascontiguousarray(job.app.result()).tobytes()
            assert served == oracle.result_bytes(job.spec), job.job_id
            service.job_report(job).save(
                os.path.join(outdir, "reports", f"{job.job_id}.json"))
            job.app.release_root_buffers()
    finally:
        server.close()
        system.close()
    with open(os.path.join(outdir, "status.json"), "w") as fh:
        json.dump(status, fh, indent=2, sort_keys=True)
        fh.write("\n")
    svc = status["service"]
    print(f"verified: {len(jobs)} served jobs match their solo runs")
    print(f"  {svc['grants']} grants, p50 latency "
          f"{svc['p50_latency_s'] * 1e3:.3f} ms, p99 "
          f"{svc['p99_latency_s'] * 1e3:.3f} ms (virtual)")
    for tenant, row in sorted(status["tenants"].items()):
        print(f"  {tenant}: {row['finished']} jobs, "
              f"{row['busy_share']:.0%} of busy time")
    print(f"  wrote {outdir}/status.json and {len(jobs)} per-job reports")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1
         else tempfile.mkdtemp(prefix="northup_serve_"))
