"""RunReport: structure, Breakdown subsumption, artifacts, CLI."""

import json

import pytest

from repro.apps import GemmApp
from repro.core.profiler import profile_trace
from repro.core.system import System
from repro.memory.units import KB, MB
from repro.obs import report as report_module
from repro.obs.phys import PID_PHYS
from repro.obs.report import RunReport, main
from repro.tools.trace_export import write_chrome_trace
from repro.topology.builders import apu_two_level


@pytest.fixture(scope="module")
def gemm_system():
    system = System(apu_two_level(storage_capacity=8 * MB,
                                  staging_bytes=128 * KB))
    GemmApp(system, m=96, k=96, n=96, seed=2).run(system)
    yield system
    system.close()


@pytest.fixture(scope="module")
def report(gemm_system):
    return RunReport.from_system(gemm_system, name="gemm")


def test_report_subsumes_breakdown(gemm_system, report):
    """Every number a Breakdown exposes appears unchanged in the report."""
    b = profile_trace(gemm_system.timeline.trace)
    d = report.to_dict()
    assert d["makespan_s"] == b.makespan
    assert d["shares"] == b.shares()
    for phase, secs in b.by_phase.items():
        row = d["phases"][phase.value]
        assert row["seconds"] == secs
        assert row["bytes"] == b.bytes_by_phase.get(phase, 0)
        assert row["share"] == pytest.approx(secs / b.busy_total)


def test_report_structure(report):
    d = report.to_dict()
    assert d["name"] == "gemm"
    assert d["intervals"] > 0
    assert d["resources"]  # per-resource busy seconds, desc order
    secs = list(d["resources"].values())
    assert secs == sorted(secs, reverse=True)
    cp = d["critical_path"]
    assert cp["steps"] > 0
    assert cp["busy_seconds"] + cp["slack_seconds"] == \
        pytest.approx(cp["length_s"])
    assert cp["length_s"] == pytest.approx(d["makespan_s"])
    assert cp["dominant_phase"] in cp["by_phase"]


def test_report_includes_spans_and_metrics(report):
    d = report.to_dict()
    assert d["spans"]["count"] > 0
    assert "run" in d["spans"]["by_kind"]
    assert d["spans"]["top_path_spans"]
    assert "trace_intervals" in d["metrics"]


def test_report_json_round_trip(tmp_path, report):
    path = tmp_path / "report.json"
    report.save(str(path))
    assert json.loads(path.read_text()) == \
        json.loads(json.dumps(report.to_dict()))


def test_report_table_renders(report):
    text = report.table()
    assert "== gemm ==" in text
    assert "busy seconds by resource" in text
    assert "critical path" in text
    assert "span tree" in text


def test_from_trace_without_observer(gemm_system):
    """A bare trace (no spans, no metrics) still reports fully."""
    r = RunReport.from_trace(gemm_system.timeline.trace, name="bare")
    d = r.to_dict()
    assert "spans" not in d and "metrics" not in d
    assert d["makespan_s"] > 0
    assert "span tree" not in r.table()


def test_cli_reports_on_exported_trace(tmp_path, capsys, gemm_system):
    path = tmp_path / "gemm.json"
    write_chrome_trace(gemm_system.timeline.trace, str(path))
    assert main([str(path), "--name", "exported"]) == 0
    out = capsys.readouterr().out
    assert "== exported ==" in out
    assert main([str(path), "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["makespan_s"] == gemm_system.timeline.trace.makespan()


def test_cli_bad_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main([str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([str(bad)]) == 2


def test_capture_writes_artifacts(tmp_path, capsys):
    assert main(["--capture", str(tmp_path)]) == 0
    for name in ("gemm", "hotspot"):
        report = json.loads((tmp_path / f"report_{name}.json").read_text())
        assert report["makespan_s"] > 0
        assert report["spans"]["count"] > 0
        trace = json.loads((tmp_path / f"trace_{name}.json").read_text())
        assert trace["traceEvents"]
        prom = (tmp_path / f"metrics_{name}.prom").read_text()
        assert "virtual_makespan_seconds" in prom
    out = capsys.readouterr().out
    assert "captured gemm" in out and "captured hotspot" in out


def test_capture_on_workers_merges_physical_lanes(tmp_path, capsys):
    """``--workers N``: each trace carries worker lanes and
    span-attributed kernel slices, each report its ``phys`` summary."""
    assert main(["--capture", str(tmp_path), "--workers", "2"]) == 0
    for name in ("gemm", "hotspot"):
        report = json.loads((tmp_path / f"report_{name}.json").read_text())
        assert report["phys"]["tasks"] > 0
        events = json.loads(
            (tmp_path / f"trace_{name}.json").read_text())["traceEvents"]
        phys = [e for e in events if e.get("pid") == PID_PHYS]
        assert any(e["name"] == "thread_name"
                   and e["args"]["name"].startswith("phys:w") for e in phys)
        assert any(e["name"] == "kernel" and e["args"].get("span")
                   for e in phys)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{kind}_{name}.{ext}" for name in ("gemm", "hotspot")
        for kind, ext in (("report", "json"), ("trace", "json"),
                          ("metrics", "prom")))
    out = capsys.readouterr().out
    assert "worker lanes" in out and "span-attributed" in out


def test_capture_on_workers_fails_without_a_worker_lane(tmp_path,
                                                        monkeypatch, capsys):
    def no_lanes(outdir, name, make_app, workers):
        return {"name": name, "events": 1, "spans": 1, "makespan_s": 1.0,
                "worker_lanes": 0, "kernel_spans": 1}
    monkeypatch.setattr(report_module, "_capture_one", no_lanes)
    assert main(["--capture", str(tmp_path), "--workers", "2"]) == 1
    assert "missing worker lanes" in capsys.readouterr().err


def test_capture_rejects_negative_workers(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--capture", str(tmp_path), "--workers", "-1"])
    assert exc.value.code == 2
