"""Performance-regression gating against committed bench baselines.

The figures banked in the committed ``BENCH_*.json`` files are claims;
this module makes them enforceable.
:func:`compare` walks a baseline JSON and a freshly generated run of the
same bench and classifies every shared numeric leaf:

* keys ending in ``_s`` (wall-clock seconds, lower is better): a
  regression when the fresh value exceeds baseline by more than the
  relative tolerance band;
* ``speedup`` keys (higher is better): a regression when the fresh
  value falls below baseline by more than the band;
* ``makespan_s`` and every boolean (``*_identical`` flags): **exact** --
  virtual time is deterministic, so any drift is a correctness bug, not
  noise;
* counts (``moves``, ``intervals``, ...): exact when both sides are
  integers (a changed workload invalidates the comparison).

Structural drift (keys present on one side only) is reported as a
warning, not a failure -- benches grow cases.

CLI
---
::

    python -m repro.obs.regress BASELINE.json FRESH.json [--rtol 0.25]
                                [--warn-only]
    python -m repro.obs.regress --slo POLICY.json STATUS.json
    python -m repro.obs.regress --update-baselines [NAME ...]

Exit status 1 on any regression (0 with ``--warn-only``, the CI mode:
shared runners are too noisy for a hard wall-clock gate at CI scale).
A baseline file that does not exist yet is a warning and exit 0: a new
bench must be able to land in the same change as its first baseline.

``--slo`` gates a ``/status`` snapshot (see
:meth:`repro.serve.service.JobService.status`) against a declarative
:class:`~repro.obs.health.SLOPolicy` instead of a bench baseline.
Unlike wall times, the gated quantities (virtual latencies, queue
depth, wedged-worker count) are deterministic, so SLO misses stay hard
failures even under ``--warn-only``-style CI noise concerns.

``--update-baselines`` regenerates the committed ``BENCH_*.json``
baselines in one command: each producing bench runs as a subprocess
(the same entry point CI uses, so the bytes match what a bench run
writes), then the old and new documents are diffed and summarised.
Names select a subset (``pipeline``, ``BENCH_serve.json``, ...); no
names means all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass

#: Committed baseline file -> the bench script whose ``__main__`` block
#: regenerates it.  Scripts run from the repository root with
#: ``PYTHONPATH=src`` -- exactly how CI produces the fresh files -- so
#: an updated baseline is byte-for-byte what the next bench run diffs
#: against.
BASELINE_PRODUCERS = {
    "BENCH_pipeline.json": "benchmarks/bench_pipeline_overlap.py",
    "BENCH_serve.json": "benchmarks/bench_serve_throughput.py",
    "BENCH_distributed.json": "benchmarks/bench_distributed_scaling.py",
}

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

#: Default relative tolerance for wall-clock comparisons.  Wall times on
#: a quiet machine vary a few percent run to run; 25% only trips on a
#: genuine algorithmic regression.
DEFAULT_RTOL = 0.25

#: Keys whose values are never subject to the tolerance band.
_EXACT_KEYS = ("makespan_s",)

#: Metadata subtrees excluded from comparison entirely.
_IGNORED_KEYS = ("meta",)


@dataclass(frozen=True)
class Finding:
    """One comparison outcome."""

    path: str
    kind: str        # "regression" | "improvement" | "warning" | "ok"
    message: str

    @property
    def is_regression(self) -> bool:
        return self.kind == "regression"


def _leaf_findings(path: str, key: str, base, fresh,
                   rtol: float) -> Finding | None:
    """Classify one shared leaf; None for uninteresting matches."""
    if isinstance(base, bool) or isinstance(fresh, bool):
        if base != fresh:
            return Finding(path, "regression",
                           f"flag flipped: baseline {base} -> {fresh}")
        return None
    if not isinstance(base, (int, float)) or \
            not isinstance(fresh, (int, float)):
        if base != fresh:
            return Finding(path, "warning",
                           f"value changed: {base!r} -> {fresh!r}")
        return None
    if key in _EXACT_KEYS:
        if base != fresh:
            return Finding(
                path, "regression",
                f"virtual time drifted: {base!r} -> {fresh!r} "
                f"(makespans are deterministic; exact match required)")
        return None
    if key.endswith("_s"):    # wall seconds: lower is better
        if fresh > base * (1 + rtol):
            return Finding(
                path, "regression",
                f"slower: {base:.6f}s -> {fresh:.6f}s "
                f"(+{(fresh / base - 1):.1%}, band +{rtol:.0%})")
        if fresh < base * (1 - rtol):
            return Finding(
                path, "improvement",
                f"faster: {base:.6f}s -> {fresh:.6f}s "
                f"({(fresh / base - 1):.1%})")
        return None
    if key == "speedup" or key.endswith("_speedup"):
        if fresh < base * (1 - rtol):
            return Finding(
                path, "regression",
                f"speedup lost: {base:.2f}x -> {fresh:.2f}x "
                f"({(fresh / base - 1):.1%}, band -{rtol:.0%})")
        return None
    if isinstance(base, int) and isinstance(fresh, int):
        if base != fresh:
            return Finding(path, "warning",
                           f"count changed: {base} -> {fresh} "
                           f"(workload drift invalidates comparison)")
        return None
    if base != fresh:
        return Finding(path, "warning", f"value changed: {base!r} -> {fresh!r}")
    return None


def compare(baseline, fresh, *, rtol: float = DEFAULT_RTOL,
            _path: str = "") -> list[Finding]:
    """Recursively compare two bench-JSON documents."""
    findings: list[Finding] = []
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        for key in baseline:
            if key in _IGNORED_KEYS:
                continue
            here = f"{_path}.{key}" if _path else key
            if key not in fresh:
                findings.append(Finding(here, "warning",
                                        "missing from fresh run"))
                continue
            b, f = baseline[key], fresh[key]
            if isinstance(b, (dict, list)) and isinstance(f, (dict, list)):
                findings.extend(compare(b, f, rtol=rtol, _path=here))
            else:
                hit = _leaf_findings(here, key, b, f, rtol)
                if hit is not None:
                    findings.append(hit)
        for key in fresh:
            if key not in baseline and key not in _IGNORED_KEYS:
                here = f"{_path}.{key}" if _path else key
                findings.append(Finding(here, "warning",
                                        "new key absent from baseline"))
        return findings
    if isinstance(baseline, list) and isinstance(fresh, list):
        if len(baseline) != len(fresh):
            findings.append(Finding(
                _path, "warning",
                f"list length changed: {len(baseline)} -> {len(fresh)}"))
        for i, (b, f) in enumerate(zip(baseline, fresh)):
            here = f"{_path}[{i}]"
            # Lists of cases are matched positionally; dict entries with
            # an identifying key get it appended for readable paths.
            if isinstance(b, dict):
                ident = b.get("case") or b.get("app") or b.get("name")
                if ident:
                    here = f"{_path}[{ident}]"
            if isinstance(b, (dict, list)) and isinstance(f, (dict, list)):
                findings.extend(compare(b, f, rtol=rtol, _path=here))
            else:
                hit = _leaf_findings(here, _path.rsplit(".", 1)[-1], b, f,
                                     rtol)
                if hit is not None:
                    findings.append(hit)
        return findings
    findings.append(Finding(_path, "warning",
                            f"shape changed: {type(baseline).__name__} -> "
                            f"{type(fresh).__name__}"))
    return findings


def _resolve_baseline_names(names: list[str]) -> list[str]:
    """Map user-friendly names onto BASELINE_PRODUCERS keys."""
    if not names:
        return sorted(BASELINE_PRODUCERS)
    resolved = []
    for name in names:
        candidates = (name, f"BENCH_{name}.json", f"{name}.json")
        match = next((c for c in candidates if c in BASELINE_PRODUCERS),
                     None)
        if match is None:
            raise KeyError(
                f"unknown baseline {name!r}; known: "
                f"{', '.join(sorted(BASELINE_PRODUCERS))}")
        resolved.append(match)
    return resolved


def update_baselines(names: list[str], *,
                     rtol: float = DEFAULT_RTOL) -> int:
    """Regenerate committed bench baselines and summarise the drift.

    Each producer runs as ``python benchmarks/bench_X.py`` from the
    repository root (the scripts write their ``BENCH_*.json`` at an
    absolute path, so this rewrites the committed files in place).
    Virtual-time drift in the fresh numbers is *reported*, not
    rejected: updating baselines is exactly the moment intentional
    changes land.
    """
    try:
        selected = _resolve_baseline_names(names)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    env = dict(os.environ)
    src = os.path.join(_REPO_ROOT, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    failures = 0
    for fname in selected:
        script = BASELINE_PRODUCERS[fname]
        path = os.path.join(_REPO_ROOT, fname)
        old_doc = None
        try:
            with open(path) as fh:
                old_doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            pass
        print(f"regenerating {fname} via {script} ...", flush=True)
        proc = subprocess.run([sys.executable, script], cwd=_REPO_ROOT,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"  FAILED (exit {proc.returncode}):", file=sys.stderr)
            tail = proc.stderr.strip().splitlines()[-10:]
            for line in tail:
                print(f"    {line}", file=sys.stderr)
            failures += 1
            continue
        with open(path) as fh:
            new_doc = json.load(fh)
        if old_doc is None:
            print(f"  wrote first baseline {fname}")
            continue
        findings = compare(old_doc, new_doc, rtol=rtol)
        virtual = [f for f in findings
                   if "virtual time drifted" in f.message]
        moved = [f for f in findings if f.kind in ("regression",
                                                   "improvement")]
        print(f"  updated {fname}: {len(moved)} value(s) moved beyond "
              f"the {rtol:.0%} band, {len(virtual)} virtual-time "
              f"change(s)")
        for f in virtual:
            print(f"    [virtual] {f.path}: {f.message}")
    if failures:
        print(f"{failures} baseline(s) failed to regenerate",
              file=sys.stderr)
        return 1
    print("review the diff and commit the refreshed baselines")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.regress",
        description="Gate a fresh bench run against a committed baseline.")
    parser.add_argument("baseline", nargs="?", metavar="BASELINE.json")
    parser.add_argument("fresh", nargs="?", metavar="FRESH.json")
    parser.add_argument("--rtol", type=float, default=DEFAULT_RTOL,
                        help=f"relative tolerance band for wall times and "
                             f"speedups (default {DEFAULT_RTOL})")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (CI mode on "
                             "noisy shared runners)")
    parser.add_argument("--slo", nargs=2,
                        metavar=("POLICY.json", "STATUS.json"),
                        help="gate a /status snapshot against an SLO "
                             "policy instead of diffing bench baselines")
    parser.add_argument("--update-baselines", nargs="*", metavar="NAME",
                        default=None,
                        help="regenerate the committed BENCH_*.json "
                             "baselines (all of them, or just the named "
                             "ones) by re-running their bench scripts")
    args = parser.parse_args(argv)

    if args.update_baselines is not None:
        if args.baseline is not None or args.fresh is not None \
                or args.slo is not None:
            parser.error("--update-baselines takes no BASELINE/FRESH "
                         "positionals and excludes --slo")
        return update_baselines(args.update_baselines, rtol=args.rtol)

    if args.slo is not None:
        if args.baseline is not None or args.fresh is not None:
            parser.error("--slo replaces the BASELINE/FRESH positionals")
        from repro.obs.health import SLOPolicy
        policy_path, status_path = args.slo
        try:
            policy = SLOPolicy.from_json(policy_path)
            with open(status_path) as fh:
                status_doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read SLO inputs: {exc}", file=sys.stderr)
            return 2
        report = policy.evaluate(status_doc)
        print(report.table())
        return 0 if report.ok else 1
    if args.baseline is None or args.fresh is None:
        parser.error("BASELINE.json and FRESH.json are required "
                     "(or use --slo)")

    # A bench whose baseline has never been committed is not a
    # regression -- it is the run that *creates* the first baseline
    # (new benches must be able to land in the same PR as their first
    # numbers).  A missing or unreadable *fresh* file is still a hard
    # error: the bench that was supposed to produce it failed.
    try:
        with open(args.baseline) as fh:
            baseline_doc = json.load(fh)
    except FileNotFoundError:
        print(f"[   warning] no committed baseline {args.baseline!r}; "
              f"treating {args.fresh!r} as the first run of this bench")
        return 0
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {args.baseline!r}: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.fresh) as fh:
            fresh_doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {args.fresh!r}: {exc}", file=sys.stderr)
        return 2
    findings = compare(baseline_doc, fresh_doc, rtol=args.rtol)

    regressions = [f for f in findings if f.is_regression]
    improvements = [f for f in findings if f.kind == "improvement"]
    warnings = [f for f in findings if f.kind == "warning"]
    for f in findings:
        marker = {"regression": "REGRESSION", "improvement": "improved",
                  "warning": "warning"}[f.kind]
        print(f"[{marker:>10}] {f.path}: {f.message}")
    print(f"compared {args.fresh} against {args.baseline}: "
          f"{len(regressions)} regression(s), {len(improvements)} "
          f"improvement(s), {len(warnings)} warning(s) "
          f"(rtol={args.rtol:.0%})")
    if regressions and args.warn_only:
        print("warn-only mode: exiting 0 despite regressions")
        return 0
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
