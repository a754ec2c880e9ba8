"""Unified command-line entry point: ``python -m repro <command>``.

Usage::

    python -m repro experiments fig05        # paper figures / tables
    python -m repro faults run --width 8     # fault-injection campaigns
    python -m repro service serve            # reliability query service
    python -m repro mc --dies 10000 --pool local:8   # variation x aging MC

Each command forwards the remaining arguments to the ``main(argv)`` of
its package's CLI module; this is the only executable module.  Commands
import lazily, so ``python -m repro mc`` never pays for the service or
faults stacks.

Exit status: the sub-CLI's; 2 for an unknown command (with a
did-you-mean suggestion).
"""

from __future__ import annotations

import difflib
import sys
from typing import List, Optional

#: command -> (module with ``main(argv) -> int``, one-line description).
COMMANDS = {
    "experiments": (
        "repro.experiments.cli",
        "run / list the paper-reproduction experiments",
    ),
    "faults": (
        "repro.faults.cli",
        "fault-injection campaigns and their benchmarks",
    ),
    "service": (
        "repro.service.cli",
        "reliability query service (serve / query / direct)",
    ),
    "mc": (
        "repro.montecarlo.cli",
        "correlated process-variation x aging Monte Carlo",
    ),
    "distrib": (
        "repro.distrib.cli",
        "distributed campaign workers (worker / exec / ping / shutdown)",
    ),
    "sweep": (
        "repro.experiments.sweep_cli",
        "incremental netlist variant sweeps (cone-delta patch-replay)",
    ),
}


def _usage(stream) -> None:
    print("usage: python -m repro <command> [options]", file=stream)
    print("commands:", file=stream)
    for name in sorted(COMMANDS):
        print("  %-12s %s" % (name, COMMANDS[name][1]), file=stream)
    print(
        "run 'python -m repro <command> --help' for command options",
        file=stream,
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        _usage(sys.stdout)
        return 0
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        close = difflib.get_close_matches(command, sorted(COMMANDS), n=1)
        hint = " -- did you mean %r?" % close[0] if close else ""
        print(
            "error: unknown command %r%s" % (command, hint),
            file=sys.stderr,
        )
        _usage(sys.stderr)
        return 2
    module_name = COMMANDS[command][0]
    import importlib

    module = importlib.import_module(module_name)
    return int(module.main(rest) or 0)


if __name__ == "__main__":
    sys.exit(main())
