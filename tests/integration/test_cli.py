"""Tests for the describe CLI."""

import subprocess
import sys

import pytest

from repro.cache.policy import _POLICIES
from repro.compute import registry
from repro.exec.base import EXEC_BACKENDS
from repro.memory import catalog
from repro.memory.network import NETWORK_PRESETS
from repro.serve.job import known_apps
from repro.tools.describe import TOPOLOGIES, main
from repro.tools.experiment.registry import list_runners
from repro.workloads.sparse import preset_names

#: Every registry ``--list`` walks: section title -> the registry's names,
#: read from the registry itself.
REGISTRIES = {
    "topologies": lambda: sorted(TOPOLOGIES),
    "devices": catalog.names,
    "processors": registry.names,
    "executor backends": lambda: list(EXEC_BACKENDS),
    "network presets": lambda: sorted(NETWORK_PRESETS),
    "eviction policies": lambda: sorted(_POLICIES),
    "serve apps": known_apps,
    "sparse presets": preset_names,
    "experiment runners": lambda: sorted(list_runners()),
}


def list_sections(capsys) -> dict[str, list[str]]:
    """``--list`` output as section title -> entry lines."""
    assert main(["--list"]) == 0
    sections: dict[str, list[str]] = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  "):
            sections[title].append(line.strip())
        else:
            title = line.rstrip(":")
            sections[title] = []
    return sections


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "repro.tools.describe",
                           *args], capture_output=True, text=True,
                          timeout=120)
    return proc


def test_list_names_every_topology(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in TOPOLOGIES:
        assert name in out


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_every_topology_renders(name, capsys):
    assert main(["--topology", name]) == 0
    out = capsys.readouterr().out
    assert "levels:" in out and "L0" in out


def test_unknown_topology_fails(capsys):
    assert main(["--topology", "warpdrive"]) == 2
    assert "unknown topology" in capsys.readouterr().err


@pytest.mark.parametrize("title", sorted(REGISTRIES))
def test_list_prints_every_registry_entry(title, capsys):
    sections = list_sections(capsys)
    assert set(sections) == set(REGISTRIES)
    names = [line.split()[0] for line in sections[title]]
    assert names == list(REGISTRIES[title]())


def test_devices_and_processors(capsys):
    sections = list_sections(capsys)
    out = "\n".join(sections["devices"])
    assert "ssd" in out and "1400.0 MB/s" in out
    out = "\n".join(sections["processors"])
    assert "gpu-apu" in out and "737" in out


@pytest.mark.parametrize("flag", ["--devices", "--processors", "--cache",
                                  "--cache-policy", "--obs", "--serve",
                                  "--exec", "--dist", "--phys", "--tuning"])
def test_removed_demo_flags_are_rejected(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_no_args_prints_help(capsys):
    assert main([]) == 0
    assert "usage" in capsys.readouterr().out


def test_module_entrypoint_runs():
    proc = run_cli("--topology", "apu")
    assert proc.returncode == 0
    assert "dram.staging" in proc.stdout


def test_spec_file_rendering(tmp_path, capsys):
    import json
    spec = {"device": "ssd", "capacity": "4MB",
            "children": [{"device": "dram", "capacity": "1MB",
                          "processors": ["gpu-apu"]}]}
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(spec))
    assert main(["--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "levels: 2" in out and "gpu-apu" in out


def test_spec_file_errors(tmp_path, capsys):
    assert main(["--spec", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--spec", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"device": "warpdrive"}')
    assert main(["--spec", str(invalid)]) == 2
    assert "invalid topology spec" in capsys.readouterr().err


def test_describe_plan_dumps_lowered_graphs(capsys):
    assert main(["--plan"]) == 0          # defaults to the apu topology
    out = capsys.readouterr().out
    assert "lowered task graphs" in out
    for app in ("hotspot", "gemm", "reduce"):
        assert f"\n{app}:" in out
    assert "critical depth" in out and "edges [" in out
    assert "setup=" in out and "compute=" in out


def test_describe_plan_unknown_topology(capsys):
    assert main(["--plan", "warpdrive"]) == 2
    assert "unknown topology" in capsys.readouterr().err


def test_repro_describe_subcommand_routes():
    proc = subprocess.run([sys.executable, "-m", "repro", "describe",
                           "--plan", "apu"], capture_output=True, text=True,
                          timeout=120,
                          env={**__import__("os").environ,
                               "PYTHONPATH": "src"})
    assert proc.returncode == 0
    assert "lowered task graphs" in proc.stdout
