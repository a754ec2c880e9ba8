"""Command-line fault-injection campaign runner.

Usage::

    # sharded, resumable sweep over 4 local workers (resumes
    # automatically when the store already holds reports for the same
    # campaign)
    python -m repro faults run --width 8 --sites 60 --patterns 2000 \\
        --pool local:4 --store campaign-store

    # distributed: each host runs one shard of the site list...
    python -m repro faults run --sites 60 --shard 1/2 --store a
    python -m repro faults run --sites 60 --shard 2/2 --store b
    # ...and the merge fuses the stores, byte-identical to serial
    python -m repro faults merge --sites 60 --store a b

    # or dispatch sites through remote workers (tcp / manifest)
    python -m repro faults run --sites 60 --pool tcp:hostA:9100,hostB:9100

    # serial-vs-sharded wall-clock benchmark, JSON artifact included
    python -m repro faults bench --sites 52 --pool local:2 \\
        --json benchmarks/results/campaign_scaling.json

``run`` exits 130 on SIGINT, printing the partial coverage; every
completed site is already in the store, so interrupted sweeps resume
cleanly.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict

from ..errors import CampaignInterrupted, ReproError
from ..util.argtypes import shard_arg
from .campaign import (
    InjectionCampaign,
    campaign_from_spec,
    merge_campaign_shards,
)


def spec_from_args(args) -> Dict:
    """The JSON-able campaign spec (the distributed transport: workers
    and ``merge`` rebuild the identical campaign from these fields)."""
    return {
        "width": args.width,
        "kind": args.kind,
        "skip": args.skip,
        "cycle_fraction": args.cycle_fraction,
        "sites": args.sites,
        "patterns": args.patterns,
        "seed": args.seed,
        "years": args.years,
        "characterize_patterns": args.characterize_patterns,
    }


def build_campaign(args) -> InjectionCampaign:
    return campaign_from_spec(spec_from_args(args))


def _progress(report, completed, total) -> None:
    sys.stderr.write(
        "\r[%d/%d] %-40s" % (completed, total, report.label[:40])
    )
    sys.stderr.flush()
    if completed == total:
        sys.stderr.write("\n")


def _write_json(path: str, payload) -> None:
    from ..analysis.serialize import dump_json

    with open(path, "w", encoding="utf-8") as fp:
        dump_json(payload, fp, indent=2)
    print("wrote %s" % path)


def cmd_run(args) -> int:
    campaign = build_campaign(args)
    site_range = None
    if args.shard is not None:
        from ..experiments.scheduler import shard_ranges

        index, count = args.shard
        ranges = shard_ranges(len(campaign.faults), count)
        site_range = ranges[index - 1] if index <= len(ranges) else (0, 0)
    print(
        "%s: %d sites x %d patterns (pool=%s%s%s)"
        % (
            campaign.architecture.name,
            len(campaign.faults),
            campaign.num_patterns,
            args.pool or "serial",
            ", store=%s" % args.store if args.store else "",
            ", shard=%d/%d" % args.shard if args.shard else "",
        )
    )
    store = None
    if args.store:
        from ..experiments.store import ArtifactStore

        store = ArtifactStore(args.store)
    start = time.time()
    try:
        result = campaign.run(
            store=store,
            resume=not args.no_resume,
            prune=not args.no_prune,
            progress=None if args.quiet else _progress,
            site_range=site_range,
            pool=args.pool,
        )
    except CampaignInterrupted as exc:
        sys.stderr.write("\n")
        print("interrupted: %s" % exc)
        if exc.partial is not None:
            print()
            print(exc.partial.render())
        return 130
    elapsed = time.time() - start
    print()
    print(result.render())
    print(
        "%.2f s wall-clock; %d simulated, %d pruned, %d resumed"
        % (
            elapsed,
            result.simulated_sites,
            result.pruned_sites,
            result.resumed_sites,
        )
    )
    if args.json:
        _write_json(args.json, result)
    return 0


def cmd_merge(args) -> int:
    """Fuse per-shard stores into the full campaign result.

    The campaign flags must match the ones the shards ran with (the
    site keys carry the campaign fingerprint, so other flags find
    nothing and the merge reports the sites missing); the output --
    rendered table and ``--json`` artifact -- is byte-identical to a
    single-host ``run`` with the same flags.
    """
    campaign = build_campaign(args)
    result = merge_campaign_shards(campaign, args.store)
    print(result.render())
    if args.json:
        _write_json(args.json, result)
    return 0


def cmd_bench(args) -> int:
    """Serial vs sharded wall-clock on the same campaign (identity
    checked site-for-site), with pruning stats -- the JSON artifact the
    benchmark suite and CI record."""
    from ..distrib.pool import open_pool

    campaign = build_campaign(args)
    print(
        "benchmarking %d sites x %d patterns, serial vs pool %s..."
        % (len(campaign.faults), campaign.num_patterns, args.pool)
    )
    start = time.time()
    serial = campaign.run(prune=not args.no_prune)
    serial_s = time.time() - start
    print("  serial : %.2f s" % serial_s)
    with open_pool(args.pool) as pool:
        start = time.time()
        sharded = campaign.run(pool=pool, prune=not args.no_prune)
        sharded_s = time.time() - start
    print("  sharded: %.2f s  (pool=%s)" % (sharded_s, args.pool))
    identical = serial.sites == sharded.sites
    print("  bit-identical: %s" % identical)
    payload = {
        "experiment": "ext_faults campaign (serial vs sharded)",
        # Speedup is bounded by the host: on a single-CPU box the
        # sharded sweep can only demonstrate identity, not gain.
        "host_cpus": os.cpu_count(),
        "design": serial.design,
        "num_patterns": serial.num_patterns,
        "sites_total": serial.num_sites,
        "sites_pruned": serial.pruned_sites,
        "sites_simulated": serial.simulated_sites,
        "workers": pool.size,
        "serial_seconds": round(serial_s, 4),
        "sharded_seconds": round(sharded_s, 4),
        "speedup": round(serial_s / sharded_s, 4) if sharded_s else None,
        "bit_identical": identical,
        "campaign": serial.summary(),
    }
    if args.json:
        _write_json(args.json, payload)
    if not identical:
        print("ERROR: sharded sweep diverged from the serial sweep")
        return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro faults",
        description="Sharded, resumable fault-injection campaigns.",
    )
    sub = parser.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--width", type=int, default=8)
    common.add_argument(
        "--kind", choices=("column", "row"), default="column"
    )
    common.add_argument(
        "--skip", type=int, default=None,
        help="judging threshold (default width//2 - 1)",
    )
    common.add_argument(
        "--cycle-fraction", type=float, default=0.6,
        help="clock period as a fraction of the critical path",
    )
    common.add_argument("--sites", type=int, default=60)
    common.add_argument("--patterns", type=int, default=2000)
    common.add_argument("--seed", type=int, default=7)
    common.add_argument("--years", type=float, default=0.0)
    common.add_argument(
        "--characterize-patterns", type=int, default=600,
        help="BTI characterization workload length",
    )
    common.add_argument(
        "--no-prune", action="store_true",
        help="disable logic-cone pruning",
    )
    common.add_argument(
        "--json", metavar="PATH", help="write a JSON artifact to PATH"
    )

    run = sub.add_parser(
        "run", parents=[common],
        help="run one (optionally sharded + resumable) campaign",
    )
    run.add_argument(
        "--store", metavar="DIR",
        help="artifact store each site report is saved to",
    )
    run.add_argument(
        "--no-resume", action="store_true",
        help="ignore reports already in the store and start over",
    )
    run.add_argument(
        "--quiet", action="store_true", help="no per-site progress line"
    )
    run.add_argument(
        "--shard", type=shard_arg, metavar="I/N", default=None,
        help="run only shard I of N (contiguous site slice; merge the"
        " per-shard stores with the 'merge' subcommand)",
    )
    run.add_argument(
        "--pool", metavar="SPEC", default=None,
        help="worker pool: local:N, tcp:host:port,... or manifest:DIR"
        " (see 'python -m repro distrib'; default: serial)",
    )
    run.set_defaults(func=cmd_run)

    merge = sub.add_parser(
        "merge", parents=[common],
        help="fuse per-shard stores into the full campaign result",
    )
    merge.add_argument(
        "--store", metavar="DIR", nargs="+", required=True,
        help="the shard store directories (any order)",
    )
    merge.set_defaults(func=cmd_merge)

    bench = sub.add_parser(
        "bench", parents=[common],
        help="serial-vs-sharded wall-clock benchmark (+JSON artifact)",
    )
    bench.add_argument(
        "--pool", metavar="SPEC", default="local:2",
        help="worker pool the sharded sweep runs on (default local:2)",
    )
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

