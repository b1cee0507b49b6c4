#!/usr/bin/env python3
"""Production reach: which ``src/`` functions no entry point ever calls.

Runs every production entry point of the repository -- the examples,
the committed scenarios and their ``collect``/``regress`` gates, the
wall-clock benchmark at full and smoke scale, the CLIs, and the
figure shims -- with a profile hook in every Python process, then
prints, per module, each function none of them entered, with its line
count.  Tests are not entry points: code that only tests reach is what
the probe finds.  The list is a worklist, not a verdict: error and
recovery paths are unreached by design.

    python benchmarks/reach.py        # ~4.5 min on a 2-vCPU host

How it works: the entry points run in a scratch copy of the checkout
(so nothing here is rewritten) with a generated ``sitecustomize`` first
on ``PYTHONPATH``.  It installs ``sys.setprofile`` and
``threading.setprofile``, records the code object of every call, and
writes the ones under ``src/`` out at interpreter exit and at
``os._exit`` -- the way forked pool workers leave.  A function counts
as reached when a recorded code object starts on its first line (the
first decorator's, for a decorated one).  Abstract methods are not
counted, and a def nested in an unreached def is part of the outer
one's lines, not a second entry.
"""

from __future__ import annotations

import ast
import glob
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Installed as ``sitecustomize`` in every traced process.  ``{src}`` is
#: the absolute source root whose calls are recorded.
SITECUSTOMIZE = '''\
import os, sys, threading

_SRC = {src!r}
_OUT = os.environ.get("REACH_DUMP_DIR")
if _OUT:
    _seen = set()

    def _hook(frame, event, arg, _add=_seen.add):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        reached = {{f"{{os.path.abspath(c.co_filename)}}:{{c.co_firstlineno}}"
                   for c in list(_seen)}}
        reached = [r for r in reached if r.startswith(_SRC)]
        path = os.path.join(_OUT, f"{{os.getpid()}}.txt")
        with open(path, "a") as fh:
            fh.write("".join(r + "\\n" for r in reached))

    _real_exit = os._exit

    def _exit(code, _real=_real_exit):
        _dump()
        _real(code)

    import atexit
    atexit.register(_dump)
    os._exit = _exit
    sys.setprofile(_hook)
    threading.setprofile(_hook)
'''


@dataclass(frozen=True)
class Func:
    """One ``def`` in the analysed tree."""

    module: str        #: path relative to the source root
    qualname: str
    first: int         #: first line: the first decorator's, else the def's
    last: int
    parent: int        #: index of the enclosing def, -1 at module/class level

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _is_abstract(node: ast.AST) -> bool:
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else getattr(
            dec, "id", "")
        if name == "abstractmethod":
            return True
    return False


def defined_functions(src: str) -> list[Func]:
    """Every non-abstract ``def`` under ``src``, in file order."""
    funcs: list[Func] = []
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"),
                                 recursive=True)):
        module = os.path.relpath(path, src)
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)

        def walk(node, prefix: str, parent: int) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.", parent)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    index = parent
                    if not _is_abstract(child):
                        index = len(funcs)
                        funcs.append(Func(
                            module, prefix + child.name,
                            min([d.lineno for d in child.decorator_list]
                                + [child.lineno]),
                            child.end_lineno, parent))
                    walk(child, f"{prefix}{child.name}.", index)
                else:
                    walk(child, prefix, parent)

        walk(tree, "", -1)
    return funcs


def unreached(funcs: list[Func], reached: set[tuple[str, int]]
              ) -> list[Func]:
    """The functions no recorded call entered, minus those nested in an
    unreached function (their lines are already the outer one's)."""
    missed = {i for i, f in enumerate(funcs)
              if (f.module, f.first) not in reached}
    return [funcs[i] for i in sorted(missed)
            if funcs[i].parent not in missed]


def read_dumps(dump_dir: str, src: str) -> set[tuple[str, int]]:
    """``(module, first line)`` of every recorded call under ``src``."""
    reached = set()
    for path in glob.glob(os.path.join(dump_dir, "*.txt")):
        with open(path) as fh:
            for line in fh:
                file, _, lineno = line.rstrip("\n").rpartition(":")
                reached.add((os.path.relpath(file, src), int(lineno)))
    return reached


def traced_env(src: str, work: str) -> dict:
    """An environment whose Python processes record their calls under
    ``src`` into ``work/dumps``."""
    site = os.path.join(work, "site")
    dumps = os.path.join(work, "dumps")
    os.makedirs(site, exist_ok=True)
    os.makedirs(dumps, exist_ok=True)
    with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE.format(src=os.path.join(src, "")))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((site, src))
    env["REACH_DUMP_DIR"] = dumps
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def entry_points(repo: str, out: str) -> list[list[str]]:
    """The production entry points, as commands run from ``repo``;
    everything they write goes under ``out``."""
    py = sys.executable
    cli = [py, "-m", "repro"]
    cmds = [[py, path] for path in
            sorted(glob.glob(os.path.join(repo, "examples", "*.py")))]
    runs = os.path.join(out, "runs")
    scenarios = sorted(os.path.basename(p)[:-5] for p in glob.glob(
        os.path.join(repo, "benchmarks", "scenarios", "*.toml")))
    cmds.append(cli + ["experiment", "list"])
    cmds += [cli + ["experiment", "run", name, "--quiet",
                    "--out", os.path.join(runs, name)]
             for name in scenarios]
    sys.path.insert(0, os.path.join(repo, "src"))
    from repro.obs.regress import BASELINES
    from repro.tools.describe import TOPOLOGIES
    for baseline, names in sorted(BASELINES.items()):
        fresh = os.path.join(out, f"fresh_{baseline}")
        cmds.append(cli + ["experiment", "collect", fresh]
                    + [os.path.join(runs, n) for n in names])
        cmds.append(cli + ["regress", baseline, fresh])
    perf = [py, os.path.join("benchmarks", "perf", "run.py"),
            "--reps", "1", "--trace"]
    cmds += [perf, perf + ["--scale", "smoke"]]
    describe = [py, "-m", "repro.tools.describe"]
    spec = os.path.join(out, "spec.json")
    with open(spec, "w") as fh:
        fh.write('{"device": "ssd", "capacity": "4GB", "children": '
                 '[{"device": "dram", "capacity": "2GB", '
                 '"processors": ["cpu", "gpu-apu"]}]}\n')
    cmds += [describe, describe + ["--list"], describe + ["--plan"],
             describe + ["--spec", spec]]
    cmds += [describe + ["--topology", name] for name in sorted(TOPOLOGIES)]
    obs, phys, serve = (os.path.join(out, d) for d in ("obs", "phys",
                                                        "serve"))
    cmds += [cli + ["report", "--capture", obs],
             cli + ["report", os.path.join(obs, "trace_gemm.json"),
                    "--name", "gemm"],
             cli + ["report", "--capture", phys, "--workers", "4"],
             [py, os.path.join("examples", "serve_status.py"), serve],
             cli + ["regress", "--slo", os.path.join("examples",
                                                     "slo_ci.json"),
                    os.path.join(serve, "status.json")]]
    pytest = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    cmds += [pytest + ["-s", os.path.join("benchmarks",
                                          "bench_serve_stream.py")],
             pytest + ["benchmarks", "--ignore=benchmarks/perf",
                       "--ignore=benchmarks/bench_serve_stream.py"]]
    return cmds


def trace(cmds: list[list[str]], *, cwd: str, src: str, work: str
          ) -> tuple[set[tuple[str, int]], list[str]]:
    """Run ``cmds`` traced; returns the reached set and the commands
    that exited non-zero."""
    env = traced_env(src, work)
    failed = []
    for cmd in cmds:
        shown = " ".join(os.path.relpath(a, cwd) if os.path.isabs(a)
                         and a != sys.executable else a for a in cmd[1:])
        print(f"  {shown}", flush=True)
        done = subprocess.run(cmd, cwd=cwd, env=env, text=True,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        if done.returncode:
            failed.append(f"{shown}\n{done.stderr[-2000:]}")
    return read_dumps(env["REACH_DUMP_DIR"], src), failed


def report(funcs: list[Func], missed: list[Func]) -> str:
    """Unreached functions per module, then the totals."""
    out = []
    by_module: dict[str, list[Func]] = {}
    for f in missed:
        by_module.setdefault(f.module, []).append(f)
    for module, fs in by_module.items():
        out.append(f"src/{module}: {len(fs)} unreached, "
                   f"{sum(f.lines for f in fs)} lines")
        out += [f"  {f.first:5d}  {f.qualname} ({f.lines})" for f in fs]
    out.append(f"unreached: {len(missed)} of {len(funcs)} functions "
               f"({sum(f.lines for f in missed):,} lines) in src/")
    return "\n".join(out)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        repo = os.path.join(work, "repo")
        ignore = shutil.ignore_patterns("__pycache__", "out", "runs",
                                        ".pytest_cache")
        for name in ("src", "benchmarks", "examples"):
            shutil.copytree(os.path.join(ROOT, name),
                            os.path.join(repo, name), ignore=ignore)
        for path in glob.glob(os.path.join(ROOT, "*.json")) + [
                os.path.join(ROOT, "pyproject.toml")]:
            shutil.copy(path, repo)
        src = os.path.join(repo, "src")
        out = os.path.join(work, "out")
        os.makedirs(out)
        print("tracing the entry points:", flush=True)
        reached, failed = trace(entry_points(repo, out), cwd=repo,
                                src=src, work=work)
        funcs = defined_functions(src)
        print(report(funcs, unreached(funcs, reached)))
        for shown in failed:
            print(f"FAILED entry point: {shown}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
