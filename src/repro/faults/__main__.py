"""Command-line fault-injection campaign runner.

Usage::

    # sharded, checkpointed sweep (resumes automatically when the
    # checkpoint already holds reports for the same campaign)
    python -m repro.faults run --width 8 --sites 60 --patterns 2000 \\
        --workers 4 --checkpoint campaign.jsonl

    # distributed: each host runs one shard of the site list...
    python -m repro.faults run --sites 60 --shard 1/2 --checkpoint a.jsonl
    python -m repro.faults run --sites 60 --shard 2/2 --checkpoint b.jsonl
    # ...and the merge fuses the checkpoints, byte-identical to serial
    python -m repro.faults merge --sites 60 --checkpoint a.jsonl b.jsonl

    # or dispatch sites through a worker pool (local / tcp / manifest)
    python -m repro.faults run --sites 60 --pool tcp:hostA:9100,hostB:9100

    # serial-vs-sharded wall-clock benchmark, JSON artifact included
    python -m repro.faults bench --sites 52 --patterns 400 --workers 2 \\
        --json benchmarks/results/campaign_scaling.json

``run`` exits 130 on SIGINT after flushing the checkpoint and printing
the partial coverage, so interrupted sweeps resume cleanly.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, Optional, Tuple

from ..errors import CampaignInterrupted, ReproError
from .campaign import (
    InjectionCampaign,
    campaign_from_spec,
    merge_campaign_shards,
)


def _shard_arg(text: str) -> Tuple[int, int]:
    index, sep, count = text.partition("/")
    try:
        pair = (int(index), int(count)) if sep else None
    except ValueError:
        pair = None
    if pair is None or not 1 <= pair[0] <= pair[1]:
        raise argparse.ArgumentTypeError(
            "shard must be I/N with 1 <= I <= N, got %r" % (text,)
        )
    return pair


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
    pool = None
    if args.pool is not None:
        from ..distrib.pool import parse_pool_spec

        pool = parse_pool_spec(args.pool)
    print(
        "%s: %d sites x %d patterns (workers=%d%s%s%s)"
        % (
            campaign.architecture.name,
            len(campaign.faults),
            campaign.num_patterns,
            args.workers,
            ", checkpoint=%s" % args.checkpoint if args.checkpoint else "",
            ", shard=%d/%d" % args.shard if args.shard else "",
            ", pool=%s" % args.pool if args.pool else "",
        )
    )
    start = time.time()
    try:
        result = campaign.run(
            workers=args.workers,
            checkpoint=args.checkpoint,
            resume=not args.no_resume,
            prune=not args.no_prune,
            progress=None if args.quiet else _progress,
            site_range=site_range,
            pool=pool,
            pool_spec=spec_from_args(args) if pool is not None else None,
        )
    except CampaignInterrupted as exc:
        sys.stderr.write("\n")
        print("interrupted: %s" % exc)
        if exc.partial is not None:
            print()
            print(exc.partial.render())
        return 130
    finally:
        if pool is not None:
            pool.close()
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
    """Fuse per-shard checkpoints into the full campaign result.

    The campaign flags must match the ones the shards ran with (the
    checkpoint header's fingerprint check enforces this); the output --
    rendered table and ``--json`` artifact -- is byte-identical to a
    single-host ``run`` with the same flags.
    """
    campaign = build_campaign(args)
    result = merge_campaign_shards(campaign, args.checkpoint)
    print(result.render())
    if args.json:
        _write_json(args.json, result)
    return 0


def cmd_bench(args) -> int:
    """Serial vs sharded wall-clock on the same campaign (identity
    checked site-for-site), with pruning stats -- the JSON artifact the
    benchmark suite and CI record."""
    campaign = build_campaign(args)
    print(
        "benchmarking %d sites x %d patterns, serial vs %d workers..."
        % (len(campaign.faults), campaign.num_patterns, args.workers)
    )
    start = time.time()
    serial = campaign.run(workers=1, prune=not args.no_prune)
    serial_s = time.time() - start
    print("  serial : %.2f s" % serial_s)
    start = time.time()
    sharded = campaign.run(
        workers=args.workers, prune=not args.no_prune
    )
    sharded_s = time.time() - start
    print("  sharded: %.2f s  (workers=%d)" % (sharded_s, args.workers))
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
        "workers": args.workers,
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
        prog="python -m repro.faults",
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
    common.add_argument("--workers", type=int, default=1)
    common.add_argument(
        "--no-prune", action="store_true",
        help="disable logic-cone pruning",
    )
    common.add_argument(
        "--json", metavar="PATH", help="write a JSON artifact to PATH"
    )

    run = sub.add_parser(
        "run", parents=[common],
        help="run one (optionally sharded + checkpointed) campaign",
    )
    run.add_argument(
        "--checkpoint", metavar="PATH",
        help="JSONL checkpoint to append per-site reports to",
    )
    run.add_argument(
        "--no-resume", action="store_true",
        help="ignore an existing checkpoint and start over",
    )
    run.add_argument(
        "--quiet", action="store_true", help="no per-site progress line"
    )
    run.add_argument(
        "--shard", type=_shard_arg, metavar="I/N", default=None,
        help="run only shard I of N (contiguous site slice; merge the"
        " per-shard checkpoints with the 'merge' subcommand)",
    )
    run.add_argument(
        "--pool", metavar="SPEC", default=None,
        help="worker pool: local:N, tcp:host:port,... or manifest:DIR"
        " (see 'python -m repro distrib')",
    )
    run.set_defaults(func=cmd_run)

    merge = sub.add_parser(
        "merge", parents=[common],
        help="fuse per-shard checkpoints into the full campaign result",
    )
    merge.add_argument(
        "--checkpoint", metavar="PATH", nargs="+", required=True,
        help="the shard checkpoint files (any order)",
    )
    merge.set_defaults(func=cmd_merge)

    bench = sub.add_parser(
        "bench", parents=[common],
        help="serial-vs-sharded wall-clock benchmark (+JSON artifact)",
    )
    bench.set_defaults(func=cmd_bench, workers_default=2)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    if args.command == "bench" and args.workers < 2:
        args.workers = 2
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    print(
        "note: 'python -m repro.faults' is deprecated; use"
        " 'python -m repro faults' (same arguments)",
        file=sys.stderr,
    )
    sys.exit(main())
