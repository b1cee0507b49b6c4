"""The README's code blocks are executable documentation."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), "..", "..", "README.md")


def python_blocks():
    with open(README) as fh:
        return re.findall(r"```python\n(.*?)```", fh.read(), re.S)


def test_readme_has_code_blocks():
    assert len(python_blocks()) >= 2


@pytest.mark.parametrize("index", range(2))
def test_readme_snippet_runs(index, capsys):
    blocks = python_blocks()
    exec(compile(blocks[index], f"<readme-{index}>", "exec"), {})


def test_module_entrypoint():
    """``python -m repro`` without a subcommand prints the four
    subcommands and exits 2."""
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "repro"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    for command in ("report", "regress", "experiment run", "describe"):
        assert f"python -m repro {command}" in proc.stderr
