"""The ``mc`` subcommand of the unified ``python -m repro`` CLI.

Usage::

    python -m repro mc --dies 200 --years 0,5,10 --width 8
    python -m repro mc --dies 10000 --pool local:8 --store .repro-store \\
        --json mc.json

    # distributed: price die shards on any hosts...
    python -m repro mc --dies 10000 --shard 1/2 --shard-json a.json
    python -m repro mc --dies 10000 --shard 2/2 --shard-json b.json
    # ...then fuse them, byte-identical to the single-host run
    python -m repro mc merge --dies 10000 --shards a.json b.json

    # or dispatch shards through remote workers (tcp / manifest)
    python -m repro mc --dies 10000 --pool tcp:hostA:9100,hostB:9100

Per-die RNG substreams and per-row batched replay make the report (and
the ``--json`` artifact) byte-identical for every ``--pool``,
for cold vs store-warm runs and for any sharding -- the surface the
CI smoke jobs ``cmp``.

Exit status: 0 on success, 2 on configuration errors (unknown spec
fields come with a did-you-mean suggestion).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..analysis.serialize import to_json
from ..errors import ReproError
from ..util.argtypes import float_list, shard_arg
from .runner import (
    mc_job_spec,
    merge_mc_shards,
    run_mc_shard,
    run_montecarlo,
)
from .spec import MonteCarloSpec


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro mc",
        description="Correlated process-variation x aging Monte Carlo.",
    )
    parser.add_argument("--dies", type=int, metavar="N",
                        help="dies to sample (default %d)"
                        % MonteCarloSpec.num_dies)
    parser.add_argument("--width", type=int, default=8,
                        help="multiplier operand width (default 8)")
    parser.add_argument("--kind", default="column",
                        choices=("am", "column", "row"),
                        help="multiplier design (default column)")
    parser.add_argument("--skip", type=int, default=None,
                        help="AHL Skip-n (default width//2 - 1)")
    parser.add_argument("--years", type=float_list, metavar="Y0,Y1,...",
                        help="ascending aging grid in years")
    parser.add_argument("--clocks", type=float_list, metavar="F0,F1,...",
                        help="ascending clock periods as fractions of"
                        " the fresh critical path")
    parser.add_argument("--patterns", type=int, metavar="N",
                        help="operand patterns in the workload stream")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--sigma-global", type=float, metavar="V",
                        help="inter-die Vth sigma (volts)")
    parser.add_argument("--sigma-spatial", type=float, metavar="V",
                        help="correlated intra-die Vth sigma (volts)")
    parser.add_argument("--sigma-random", type=float, metavar="V",
                        help="per-cell random Vth sigma (volts)")
    parser.add_argument("--corr-length", type=float, metavar="CELLS",
                        help="spatial correlation length (cell units)")
    parser.add_argument("--target-yield", type=float, metavar="F",
                        help="timing-yield floor for guard-band tuning")
    parser.add_argument("--die-chunk", type=int, metavar="N",
                        help="dies per batched replay slab")
    parser.add_argument("--bins", type=int, default=32,
                        help="critical-path histogram bins (default 32)")
    parser.add_argument("--characterize-patterns", type=int, default=2000,
                        metavar="N",
                        help="BTI characterization workload length"
                        " (default 2000)")
    parser.add_argument("--shard", type=shard_arg, metavar="I/N",
                        default=None,
                        help="price only die shard I of N and write its"
                        " payload to --shard-json (fuse with 'merge')")
    parser.add_argument("--shard-json", metavar="PATH", default=None,
                        help="shard payload output path (with --shard)")
    parser.add_argument("--pool", metavar="SPEC", default=None,
                        help="worker pool: local:N, tcp:host:port,... or"
                        " manifest:DIR (see 'python -m repro distrib';"
                        " default: serial; results are bit-identical)")
    parser.add_argument("--store", metavar="PATH",
                        help="persistent artifact store directory"
                        " (priced populations are reused when warm)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full result as sorted JSON")
    return parser


def _spec_from_args(args) -> MonteCarloSpec:
    overrides = {
        "num_dies": args.dies,
        "years": args.years,
        "clock_fractions": args.clocks,
        "num_patterns": args.patterns,
        "seed": args.seed,
        "sigma_global_v": args.sigma_global,
        "sigma_spatial_v": args.sigma_spatial,
        "sigma_random_v": args.sigma_random,
        "correlation_length": args.corr_length,
        "target_yield": args.target_yield,
        "die_chunk": args.die_chunk,
    }
    return MonteCarloSpec.from_overrides(
        **{k: v for k, v in overrides.items() if v is not None}
    )


def _job_from_args(args, spec: MonteCarloSpec):
    return mc_job_spec(
        spec,
        args.width,
        args.kind,
        args.skip,
        characterize_patterns=args.characterize_patterns,
    )


def _emit(result, json_path) -> None:
    print(result.render())
    if json_path:
        directory = os.path.dirname(json_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(json_path, "w", encoding="utf-8") as fp:
            fp.write(to_json(result, indent=2))
            fp.write("\n")
        print("wrote %s" % json_path)


def _main_shard(args) -> int:
    if args.shard_json is None:
        raise ReproError("--shard needs --shard-json PATH for the payload")
    from ..experiments.scheduler import shard_ranges

    spec = _spec_from_args(args)
    index, count = args.shard
    ranges = shard_ranges(spec.num_dies, count)
    die_range = ranges[index - 1] if index <= len(ranges) else (0, 0)
    payload = run_mc_shard(_job_from_args(args, spec), die_range)
    with open(args.shard_json, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True)
        fp.write("\n")
    print(
        "wrote %s (dies [%d, %d) of %d)"
        % (args.shard_json, die_range[0], die_range[1], spec.num_dies)
    )
    return 0


def _main_merge(argv) -> int:
    parser = make_parser()
    parser.prog = "python -m repro mc merge"
    parser.add_argument("--shards", metavar="PATH", nargs="+",
                        required=True,
                        help="the --shard-json payload files (any order)")
    args = parser.parse_args(argv)
    try:
        shards = []
        for path in args.shards:
            with open(path, "r", encoding="utf-8") as fp:
                shards.append(json.load(fp))
        result = merge_mc_shards(
            _job_from_args(args, _spec_from_args(args)),
            shards,
            num_bins=args.bins,
        )
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    _emit(result, args.json)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "merge":
        return _main_merge(argv[1:])
    args = make_parser().parse_args(argv)
    try:
        if args.shard is not None:
            return _main_shard(args)
        result = run_montecarlo(
            _spec_from_args(args),
            width=args.width,
            kind=args.kind,
            skip=args.skip,
            store=args.store,
            characterize_patterns=args.characterize_patterns,
            num_bins=args.bins,
            pool=args.pool,
        )
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    _emit(result, args.json)
    return 0

