"""Experiment artifact directories.

One scenario run owns one directory::

    <dir>/
      meta.json            # scenario doc + expanded cell list + status
      cells/
        cell-0000.json     # {"index", "params", "repeat", "record"}
        cell-0001.json
      summary.json         # written only on completion
      report.md            # markdown rendering of the summary
      tuned.json           # autotune runs: the tuned-config artifact

``meta.json`` is written (atomically) before any cell executes and
each cell file lands atomically as its cell completes, so a run killed
at any point leaves a *valid partial artifact*: the cell list is known,
the completed subset is readable, and ``summary.json`` is absent.
``resume`` diffs the two to find the missing cells.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.errors import ConfigError

META_NAME = "meta.json"
SUMMARY_NAME = "summary.json"
REPORT_NAME = "report.md"
TUNED_NAME = "tuned.json"
CELLS_DIR = "cells"

#: meta.json schema version; bump on incompatible layout changes.
LAYOUT_VERSION = 1


def write_json_atomic(path: str, doc: Any) -> None:
    """Write JSON via a same-directory temp file + rename, so readers
    (and resumed runs) never observe a torn file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def write_collection(path: str, summaries: list[dict[str, Any]]) -> None:
    """Write ``experiment collect``'s document -- finished summaries
    keyed by scenario name, the one format of every ``BENCH_*.json``."""
    write_json_atomic(path, {s["scenario"]: s for s in summaries})


class Artifact:
    """Reader/writer for one experiment artifact directory."""

    def __init__(self, root: str) -> None:
        self.root = root

    # -- paths ----------------------------------------------------------------

    @property
    def meta_path(self) -> str:
        return os.path.join(self.root, META_NAME)

    @property
    def summary_path(self) -> str:
        return os.path.join(self.root, SUMMARY_NAME)

    @property
    def report_path(self) -> str:
        return os.path.join(self.root, REPORT_NAME)

    @property
    def tuned_path(self) -> str:
        return os.path.join(self.root, TUNED_NAME)

    @property
    def cells_dir(self) -> str:
        return os.path.join(self.root, CELLS_DIR)

    def cell_path(self, index: int) -> str:
        return os.path.join(self.cells_dir, f"cell-{index:04d}.json")

    # -- writing --------------------------------------------------------------

    def begin(self, meta: dict[str, Any]) -> None:
        """Create the directory skeleton and persist ``meta.json``."""
        os.makedirs(self.cells_dir, exist_ok=True)
        write_json_atomic(self.meta_path, {"layout": LAYOUT_VERSION, **meta})

    def write_cell(self, index: int, params: dict[str, Any], repeat: int,
                   record: dict[str, Any]) -> None:
        write_json_atomic(self.cell_path(index),
                          {"index": index, "params": params,
                           "repeat": repeat, "record": record})

    def finish(self, summary: dict[str, Any], report_md: str) -> None:
        write_json_atomic(self.summary_path, summary)
        tmp = self.report_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(report_md if report_md.endswith("\n")
                     else report_md + "\n")
        os.replace(tmp, self.report_path)

    def write_tuned(self, doc: dict[str, Any]) -> None:
        write_json_atomic(self.tuned_path, doc)

    # -- reading --------------------------------------------------------------

    @property
    def exists(self) -> bool:
        return os.path.exists(self.meta_path)

    @property
    def complete(self) -> bool:
        return os.path.exists(self.summary_path)

    def read_meta(self) -> dict[str, Any]:
        try:
            with open(self.meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"{self.root} is not an experiment artifact "
                              f"(no {META_NAME})") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"unreadable {self.meta_path}: {exc}") from exc
        if meta.get("layout") != LAYOUT_VERSION:
            raise ConfigError(
                f"{self.meta_path}: layout {meta.get('layout')!r} is not "
                f"the supported version {LAYOUT_VERSION}")
        return meta

    def read_summary(self) -> dict[str, Any]:
        try:
            with open(self.summary_path, encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"{self.root} has no {SUMMARY_NAME} "
                              f"(incomplete run; resume it)") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"unreadable {self.summary_path}: {exc}") from exc

    def completed_cells(self) -> dict[int, dict[str, Any]]:
        """Index -> cell document for every readable completed cell.

        A torn/corrupt cell file (only possible if something other than
        :func:`write_json_atomic` produced it) is skipped, i.e. treated
        as not-yet-run, so resume re-executes rather than crashes.
        """
        out: dict[int, dict[str, Any]] = {}
        if not os.path.isdir(self.cells_dir):
            return out
        for name in sorted(os.listdir(self.cells_dir)):
            if not (name.startswith("cell-") and name.endswith(".json")):
                continue
            path = os.path.join(self.cells_dir, name)
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                out[int(doc["index"])] = doc
            except (OSError, ValueError, KeyError):
                continue
        return out
