"""Regression gating against the committed ``BENCH_*.json`` baselines.

Every committed baseline is an ``experiment collect`` document of
committed-scale scenario runs, and every number in it outside a
``meta`` subtree is *virtual* -- deterministic to the last bit.  So
:func:`compare` has one rule: walking a baseline and a fresh run of the
same scenarios, every leaf outside ``meta`` must be equal, and a key or
list entry present on one side only is a failure too.  Anything a host
can move (wall seconds, pool width, paths, platform) lives under
``meta`` and is not compared.

CLI
---
::

    python -m repro regress BASELINE.json FRESH.json
    python -m repro regress --slo POLICY.json STATUS.json
    python -m repro regress --update-baselines [NAME ...]

Exit status 1 on any difference.  A baseline file that does not exist
yet is a warning and exit 0: a new scenario must be able to land in the
same change as its first baseline.

``--slo`` gates a ``/status`` snapshot (see
:meth:`repro.serve.service.JobService.status`) against a declarative
:class:`~repro.obs.health.SLOPolicy` instead of a bench baseline.

``--update-baselines`` re-runs the scenarios behind the committed
baselines (:data:`BASELINES`) and rewrites the files in place, printing
what moved.  Names select a subset (``pipeline``, ``BENCH_serve.json``,
...); no names means all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass

from repro.errors import NorthupError

#: Committed baseline file -> the scenarios collected into it.
BASELINES = {
    "BENCH_pipeline.json": ("pipeline_overlap",),
    "BENCH_serve.json": ("serve_throughput",),
    "BENCH_distributed.json": ("distributed_scaling",),
    "BENCH_experiments.json": ("fig6", "fig11", "fig11_autotune"),
}

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

#: Host-dependent subtrees excluded from comparison entirely.
_IGNORED_KEYS = ("meta",)


@dataclass(frozen=True)
class Finding:
    """One difference between a baseline and a fresh document."""

    path: str
    message: str


def compare(baseline, fresh, *, _path: str = "") -> list[Finding]:
    """Every difference between two bench documents outside ``meta``."""
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        findings: list[Finding] = []
        for key in sorted(baseline.keys() | fresh.keys()):
            if key in _IGNORED_KEYS:
                continue
            here = f"{_path}.{key}" if _path else key
            if key not in fresh:
                findings.append(Finding(here, "missing from fresh run"))
            elif key not in baseline:
                findings.append(Finding(here, "new key absent from "
                                              "baseline"))
            else:
                findings.extend(compare(baseline[key], fresh[key],
                                        _path=here))
        return findings
    if isinstance(baseline, list) and isinstance(fresh, list):
        if len(baseline) != len(fresh):
            return [Finding(_path, f"list length changed: "
                                   f"{len(baseline)} -> {len(fresh)}")]
        return [f for i, (b, n) in enumerate(zip(baseline, fresh))
                for f in compare(b, n, _path=f"{_path}[{i}]")]
    # bool is an int to ``==``: True must not pass for 1.
    if type(baseline) is not type(fresh) or baseline != fresh:
        return [Finding(_path, f"changed: {baseline!r} -> {fresh!r}")]
    return []


def update_baselines(names: list[str]) -> int:
    """Re-run the scenarios behind the selected baselines and rewrite
    the committed files.  Differences are *reported*, not rejected:
    updating baselines is exactly the moment intentional changes land."""
    from repro.tools.experiment.artifact import write_collection
    from repro.tools.experiment.config import find_scenario, load_scenario
    from repro.tools.experiment.runner import run_scenario
    selected = []
    for name in names or sorted(BASELINES):
        match = next((c for c in (name, f"BENCH_{name}.json",
                                  f"{name}.json") if c in BASELINES), None)
        if match is None:
            print(f"unknown baseline {name!r}; known: "
                  f"{', '.join(sorted(BASELINES))}", file=sys.stderr)
            return 2
        selected.append(match)
    for fname in selected:
        path = os.path.join(_REPO_ROOT, fname)
        print(f"regenerating {fname} from scenarios "
              f"{', '.join(BASELINES[fname])} ...", flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            summaries = [
                run_scenario(load_scenario(find_scenario(scenario)),
                             out_dir=os.path.join(tmp, scenario)).summary
                for scenario in BASELINES[fname]]
        try:
            with open(path) as fh:
                old_doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            old_doc = None
        write_collection(path, summaries)
        if old_doc is None:
            print(f"  wrote first baseline {fname}")
            continue
        with open(path) as fh:
            findings = compare(old_doc, json.load(fh))
        print(f"  updated {fname}: {len(findings)} value(s) changed")
        for f in findings:
            print(f"    {f.path}: {f.message}")
    print("review the diff and commit the refreshed baselines")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.regress",
        description="Gate a fresh bench run against a committed baseline.")
    parser.add_argument("baseline", nargs="?", metavar="BASELINE.json")
    parser.add_argument("fresh", nargs="?", metavar="FRESH.json")
    parser.add_argument("--slo", nargs=2,
                        metavar=("POLICY.json", "STATUS.json"),
                        help="gate a /status snapshot against an SLO "
                             "policy instead of diffing bench baselines")
    parser.add_argument("--update-baselines", nargs="*", metavar="NAME",
                        default=None,
                        help="regenerate the committed BENCH_*.json "
                             "baselines (all of them, or just the named "
                             "ones) by re-running their scenarios")
    args = parser.parse_args(argv)

    if args.update_baselines is not None:
        if args.baseline is not None or args.fresh is not None \
                or args.slo is not None:
            parser.error("--update-baselines takes no BASELINE/FRESH "
                         "positionals and excludes --slo")
        return update_baselines(args.update_baselines)

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
        except NorthupError as exc:
            print(f"invalid SLO policy {policy_path!r}: {exc}",
                  file=sys.stderr)
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
    findings = compare(baseline_doc, fresh_doc)
    for f in findings:
        print(f"[REGRESSION] {f.path}: {f.message}")
    print(f"compared {args.fresh} against {args.baseline}: "
          f"{len(findings)} regression(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
