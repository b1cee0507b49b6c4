"""The examples must run clean: they are executable documentation."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

EXAMPLES = ["quickstart.py", "thermal_simulation.py",
            "sparse_analytics.py", "custom_topology.py",
            "paper_listing3.py", "load_balancing.py",
            "external_sort.py", "serve_status.py"]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    path = os.path.join(EXAMPLES_DIR, script)
    proc = subprocess.run([sys.executable, path], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, (
        f"{script} failed:\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    assert "verified" in proc.stdout.lower() or "Verified" in proc.stdout


def test_quickstart_mentions_breakdown():
    path = os.path.join(EXAMPLES_DIR, "quickstart.py")
    proc = subprocess.run([sys.executable, path], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0
    assert "breakdown" in proc.stdout.lower()
    assert "topology" in proc.stdout.lower()


def test_custom_topology_runs_four_machines():
    path = os.path.join(EXAMPLES_DIR, "custom_topology.py")
    proc = subprocess.run([sys.executable, path], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stdout.count("verified") == 4
