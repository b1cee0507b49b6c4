"""The live status plane: HTTP endpoints over any snapshot callable,
the serve integration (``JobService.status`` + ``start_status_server``)
and the ``repro top`` renderer."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.live import (STATUS_SCHEMA, StatusServer, fetch_status,
                            render_top, status_residue, top_main)
from repro.obs.metrics import MetricsRegistry


def _doc(wedged=0):
    return {
        "schema": STATUS_SCHEMA,
        "service": {"policy": "fair", "uptime_s": 1.5, "live_jobs": 2,
                    "pending_jobs": 1, "finished_jobs": 4,
                    "rejected_jobs": 0, "grants": 99,
                    "p50_latency_s": 0.002, "p99_latency_s": 0.004},
        "tenants": {"acme": {"live": 1, "finished": 2,
                             "p50_latency_s": 0.002,
                             "p99_latency_s": 0.003,
                             "busy_share": 0.6}},
        "workers_summary": {"workers": {
            "w0": {"tasks": 5, "busy_s": 0.01, "utilization": 0.8}}},
        "health": {"workers": {"w0": {"state": "healthy", "age_s": 0.1}},
                   "counts": {"healthy": 1, "slow": 0, "wedged": wedged}},
        "shm_pool": {"segments": 3, "reused": 7, "free": 2},
    }


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.status, resp.read().decode()


def test_status_server_endpoints():
    reg = MetricsRegistry()
    reg.counter("demo_total", 3)
    with StatusServer(_doc, metrics=reg) as srv:
        assert f"status-server:{srv.port}" in status_residue()
        status = fetch_status(srv.url)          # bare URL -> /status
        assert status == json.loads(json.dumps(_doc()))
        assert fetch_status(srv.url + "/status") == status
        code, body = _get(srv.url + "/metrics")
        assert code == 200 and "demo_total 3" in body
        code, body = _get(srv.url + "/healthz")
        assert code == 200 and body == "ok\n"
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(srv.url + "/nope")
        assert err.value.code == 404
    assert f"status-server:{srv.port}" not in status_residue()
    srv.close()                                  # idempotent


def test_healthz_flips_503_on_wedged_worker_or_broken_snapshot():
    srv = StatusServer(lambda: _doc(wedged=1))
    try:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(srv.url + "/healthz")
        assert err.value.code == 503
        assert "wedged workers: 1" in err.value.read().decode()
    finally:
        srv.close()

    def broken():
        raise RuntimeError("torn down")

    srv = StatusServer(broken)
    try:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(srv.url + "/status")
        assert err.value.code == 503
    finally:
        srv.close()


def test_render_top_shows_every_section():
    frame = render_top(_doc())
    assert STATUS_SCHEMA in frame and "policy=fair" in frame
    assert "2 live" in frame and "grants=99" in frame
    assert "acme" in frame and "w0" in frame and "healthy" in frame
    assert "shm pool: 3 segments" in frame
    # Sparse docs render without blowing up.
    assert "policy=?" in render_top({})


def test_top_main_once_raw_and_unreachable(capsys):
    with StatusServer(_doc) as srv:
        assert top_main([srv.url, "--once", "--raw"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["schema"] == STATUS_SCHEMA
        assert top_main([srv.url, "--once"]) == 0
        assert "repro top" in capsys.readouterr().out
        dead_url = srv.url
    assert top_main([dead_url, "--once"]) == 1
    assert "cannot reach" in capsys.readouterr().err


# -- the serve integration ---------------------------------------------------

@pytest.fixture(scope="module")
def served():
    from repro.bench import configs
    from repro.core.system import System
    from repro.serve import Arrival, JobService, JobSpec, ServeConfig

    sys_ = System(configs.scaled_apu_tree("ssd"))
    service = JobService(sys_, ServeConfig(policy="fair"))
    stream = [
        Arrival(vt=0.0, spec=JobSpec("sort", tenant="acme",
                                     params=dict(n=20_000, seed=7))),
        Arrival(vt=1e-4, spec=JobSpec("spmv", tenant="beta",
                                      params=dict(nrows=512, seed=11))),
    ]
    jobs = service.run(stream)
    yield service, jobs
    for job in jobs:
        if job.app is not None:
            job.app.release_root_buffers()
    sys_.close()


def test_job_service_status_document(served):
    service, jobs = served
    status = service.status()
    assert status["schema"] == STATUS_SCHEMA
    svc = status["service"]
    assert svc["policy"] == "fair"
    assert svc["finished_jobs"] == len(jobs)
    assert svc["live_jobs"] == 0 and svc["pending_jobs"] == 0
    assert svc["grants"] > 0 and svc["uptime_s"] > 0.0
    assert 0.0 < svc["p50_latency_s"] <= svc["p99_latency_s"]
    assert set(status["tenants"]) == {"acme", "beta"}
    for row in status["tenants"].values():
        assert row["finished"] == 1
        assert 0.0 <= row["busy_share"] <= 1.0
    # Inline backend, telemetry off: the stats-derived worker summary.
    assert status["workers_summary"]["backend"] == "inline"
    assert status["health"] == {"workers": {}, "counts": {}}
    # The document is JSON-clean (the endpoint serialises it as-is).
    json.dumps(status)


def test_job_service_status_server_lifecycle(served):
    service, _ = served
    srv = service.start_status_server()
    try:
        assert service.start_status_server() is srv     # idempotent
        status = fetch_status(srv.url)
        assert status["schema"] == STATUS_SCHEMA
        assert status["service"]["finished_jobs"] == 2
        code, body = _get(srv.url + "/metrics")
        assert code == 200 and "serve_jobs_finished" in body
        code, _body = _get(srv.url + "/healthz")
        assert code == 200
    finally:
        srv.close()
    assert status_residue() == []


def test_status_board_idle_document():
    """A service that has served nothing yet still answers /status with
    a schema-valid, empty document (what ``repro top`` shows at start)."""
    from repro.bench import configs
    from repro.core.system import System
    from repro.serve import JobService

    with System(configs.scaled_apu_tree("ssd")) as sys_:
        idle = JobService(sys_).status()
    assert idle["schema"] == STATUS_SCHEMA
    assert idle["service"]["policy"] == "fair"
    assert idle["service"]["live_jobs"] == 0
    assert idle["service"]["finished_jobs"] == 0
    assert idle["service"]["p99_latency_s"] == 0.0
    assert idle["tenants"] == {}
    json.dumps(idle)
