"""``python -m repro experiment`` -- run/report/list scenario configs."""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import NorthupError
from repro.tools.experiment.artifact import Artifact, write_collection
from repro.tools.experiment.config import (default_scenario_dir,
                                           find_scenario, load_scenario)
from repro.tools.experiment.report import render_report
from repro.tools.experiment.runner import run_scenario


def _cmd_run(args: argparse.Namespace) -> int:
    path = find_scenario(args.scenario)
    scenario = load_scenario(path)
    out_dir = args.out or os.path.join("runs", scenario.name)
    result = run_scenario(scenario, out_dir=out_dir, workers=args.workers,
                          resume=args.resume)
    print(f"scenario {scenario.name}: {result.executed} cell(s) run, "
          f"{result.reused} reused -> {result.out_dir}")
    if result.tuned is not None:
        best = result.tuned["best"]
        print(f"tuned: {best['params']} (score {best['score']:.6g}, "
              f"{result.tuned['evaluated']}/{result.tuned['grid_size']} "
              f"cells evaluated)")
    if not args.quiet:
        with open(result.artifact.report_path, encoding="utf-8") as fh:
            print(fh.read(), end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    art = Artifact(args.dir)
    meta = art.read_meta()
    if not art.complete:
        done = len(art.completed_cells())
        total = len(meta.get("plan", []))
        print(f"{args.dir}: incomplete run of scenario "
              f"{meta.get('scenario', {}).get('name', '?')!r} "
              f"({done}/{total or '?'} cells done); resume it with\n"
              f"  python -m repro experiment run "
              f"{meta.get('scenario', {}).get('name', '?')} "
              f"--out {args.dir} --resume")
        return 1
    print(render_report(art.read_summary()), end="")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    """Combine finished artifact summaries into one JSON document that
    :mod:`repro.obs.regress` gates against a committed baseline
    (everything outside the ``meta`` keys is virtual and exact)."""
    summaries = []
    for d in args.dirs:
        art = Artifact(d)
        if not art.complete:
            print(f"error: {d} is not a finished artifact dir",
                  file=sys.stderr)
            return 2
        summaries.append(art.read_summary())
    write_collection(args.out, summaries)
    n = len(summaries)
    print(f"collected {n} summar{'y' if n == 1 else 'ies'} -> {args.out}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    base = default_scenario_dir()
    names = sorted(n for n in (os.listdir(base) if os.path.isdir(base)
                               else [])
                   if n.endswith((".toml", ".json")))
    if not names:
        print(f"no scenarios in {base}")
        return 0
    print(f"scenarios in {base}:")
    for name in names:
        try:
            sc = load_scenario(os.path.join(base, name))
        except NorthupError as exc:
            print(f"  {name:28s} [unreadable: {exc}]")
            continue
        kind = "tune" if sc.tuner is not None else \
            f"{sc.cell_count} cell(s)"
        print(f"  {sc.name:28s} {kind:12s} {sc.title}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro experiment",
        description="Run declarative experiment scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario into an "
                                     "artifact directory")
    run.add_argument("scenario",
                     help="scenario name (looked up in the committed "
                          "scenario dir) or a path to a .toml/.json file")
    run.add_argument("--out", default=None,
                     help="artifact directory (default: runs/<name>)")
    run.add_argument("--workers", type=int, default=1,
                     help="process-pool width for matrix cells")
    run.add_argument("--resume", action="store_true",
                     help="complete an interrupted run in --out")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the report body on stdout")
    run.set_defaults(fn=_cmd_run)

    report = sub.add_parser("report", help="print the report of a "
                                           "finished artifact directory")
    report.add_argument("dir", help="artifact directory")
    report.set_defaults(fn=_cmd_report)

    collect = sub.add_parser(
        "collect", help="combine finished artifact summaries into one "
                        "JSON document for the regression gate")
    collect.add_argument("out", help="output JSON path")
    collect.add_argument("dirs", nargs="+",
                         help="finished artifact directories")
    collect.set_defaults(fn=_cmd_collect)

    lst = sub.add_parser("list", help="list committed scenarios")
    lst.set_defaults(fn=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NorthupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
