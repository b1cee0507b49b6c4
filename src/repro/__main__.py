"""``python -m repro``: the command-line entry point.

Subcommands::

    python -m repro report RUN.json      # RunReport on an exported trace
    python -m repro regress BASE NEW     # exact gate on committed figures
    python -m repro experiment run NAME  # declarative scenario harness
    python -m repro describe --plan      # dump lowered task graphs etc.

See ``--help`` on each.  Without one of these subcommands this text is
printed and the exit status is 2.
"""

import importlib
import sys

_COMMANDS = {
    "report": ("repro.obs.report", "main"),
    "regress": ("repro.obs.regress", "main"),
    "experiment": ("repro.tools.experiment.cli", "main"),
    "describe": ("repro.tools.describe", "main"),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _COMMANDS:
        print(__doc__, file=sys.stderr)
        return 2
    module, name = _COMMANDS[argv[0]]
    return getattr(importlib.import_module(module), name)(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
