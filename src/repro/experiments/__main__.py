"""Command-line experiment runner.

Usage::

    python -m repro.experiments                 # list experiments
    python -m repro.experiments --tag paper     # list a tag's experiments
    python -m repro.experiments fig05           # run one
    python -m repro.experiments fig05,fig07     # run a few
    python -m repro.experiments all             # run everything
    python -m repro.experiments all --scale .1  # quick pass (10% patterns)
    python -m repro.experiments all --jobs 4    # parallel suite run
    python -m repro.experiments all --store .repro-store   # persistent
    python -m repro.experiments all --store .repro-store --cold

``--jobs N`` fans the suite out over N worker processes after a warm-up
stage characterizes each shared design exactly once; rendered outputs
are byte-identical to the serial run.  ``--store PATH`` persists
netlists / stress profiles / stream results across invocations, so a
warm re-run touches almost no simulation; ``--cold`` clears the store
first.  Exit status: 0 on success, 1 when any experiment failed (the
rest still ran -- see the accounting table), 2 on configuration errors
(unknown experiment ids come with a did-you-mean suggestion).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import ReproError
from .scheduler import run_suite
from .registry import get_experiment, list_experiments
from .store import ArtifactStore


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (see DESIGN.md), comma-separated ids,"
        " or 'all'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="pattern-count multiplier (1.0 = paper counts)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="also write a markdown reproduction report to PATH",
    )
    parser.add_argument(
        "--tag",
        help="restrict the listing / 'all' run to one tag "
        "(e.g. paper, extension)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1 = serial; >1 shares a store)",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        help="persistent artifact store directory (created on demand);"
        " warm re-runs skip cached netlists/stress/streams",
    )
    parser.add_argument(
        "--cold",
        action="store_true",
        help="clear the --store directory before running",
    )
    parser.add_argument(
        "--dump-rendered",
        metavar="PATH",
        help="write a JSON map of experiment id -> rendered output"
        " (the byte-identity surface for serial-vs-parallel checks)",
    )
    parser.add_argument(
        "--pool",
        metavar="SPEC",
        default=None,
        help="worker pool: local:N, tcp:host:port,... or manifest:DIR"
        " (see 'python -m repro distrib')",
    )
    args = parser.parse_args(argv)

    if not args.experiment:
        print("available experiments:")
        for spec in list_experiments(tag=args.tag):
            print(
                "  %-14s %-45s [%s]"
                % (spec.id, spec.title, ", ".join(spec.tags))
            )
        return 0

    try:
        return _run(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.experiment == "all":
        names = None
    else:
        names = [
            name for name in args.experiment.split(",") if name
        ]
        for name in names:
            get_experiment(name)  # fail fast with did-you-mean
    store = None
    if args.store:
        store = ArtifactStore(args.store)
        if args.cold:
            store.clear()

    def emit(entry):
        print("=" * 72)
        print("%s  (%.1f s)" % (entry.name, entry.elapsed))
        print("=" * 72)
        print(entry.rendered)
        print()

    pool = None
    if args.pool is not None:
        from ..distrib.pool import parse_pool_spec

        pool = parse_pool_spec(args.pool)
    try:
        suite = run_suite(
            names=names,
            tag=args.tag if args.experiment == "all" else None,
            scale=args.scale,
            jobs=args.jobs,
            store=store,
            on_result=emit,
            pool=pool,
        )
    finally:
        if pool is not None:
            pool.close()
    print(suite.render())

    if args.dump_rendered:
        with open(args.dump_rendered, "w", encoding="utf-8") as fp:
            json.dump(
                suite.rendered_by_name(), fp, indent=2, sort_keys=True
            )
        print("rendered outputs written to %s" % args.dump_rendered)
    if args.report:
        from ..analysis.report import ReproductionReport

        report = ReproductionReport(
            title="Aging-aware multiplier reproduction (scale %.2f)"
            % args.scale
        )
        for entry in suite.entries:
            report.add_section(entry.name, entry.rendered, entry.elapsed)
        report.add_section("suite accounting", suite.render())
        report.write(args.report)
        print("report written to %s" % args.report)
    return 1 if suite.failures() else 0


if __name__ == "__main__":
    print(
        "note: 'python -m repro.experiments' is deprecated; use"
        " 'python -m repro experiments' (same arguments)",
        file=sys.stderr,
    )
    sys.exit(main())
