"""Reliability-service command line.

Usage::

    python -m repro service serve --store .repro-store --port 7753 \\
        --pool local:1
    python -m repro service query --port 7753 --width 16 --kind column \\
        --years 0,5,10 --patterns 2000 --cycle-ns 6.5
    python -m repro service direct --store .repro-store --width 16 \\
        --kind column --years 0,5,10 --patterns 2000 --cycle-ns 6.5

``serve`` prices queries on a worker pool (``--pool local:N`` or
``tcp:host:port,...`` of ``distrib worker`` daemons); ``query`` talks
to a running server; ``direct`` computes the identical records
in-process (the identity oracle CI ``cmp``'s served responses
against).

Exit status: 0 on success, 2 on configuration/usage errors, 3 when
``query --json`` gets a non-ok response.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import ReproError
from ..util.argtypes import float_list
from .backend import compute_direct
from .client import ServiceClient
from .protocol import QuerySpec
from .server import ServiceConfig, serve_in_background


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _add_query_args(parser, with_store: bool) -> None:
    parser.add_argument("--width", type=int, default=16)
    parser.add_argument("--kind", default="column",
                        choices=("am", "column", "row"))
    parser.add_argument("--years", type=float_list, default=(0.0,),
                        metavar="Y1,Y2,...")
    parser.add_argument("--patterns", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycle-ns", type=float, default=None)
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the per-year result records (canonical JSON)",
    )
    if with_store:
        parser.add_argument("--store", metavar="DIR", default=None)
        parser.add_argument(
            "--characterize-patterns", type=int, default=2000
        )


def _spec_from_args(args) -> QuerySpec:
    return QuerySpec(
        width=args.width,
        kind=args.kind,
        years=args.years,
        num_patterns=args.patterns,
        seed=args.seed,
        cycle_ns=args.cycle_ns,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro service",
        description="Aging-aware reliability query service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the asyncio server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7753)
    serve.add_argument("--store", metavar="DIR", default=None)
    serve.add_argument(
        "--pool", metavar="SPEC", default="local:1",
        help="worker pool the backend prices on: local:N or"
        " tcp:host:port[,host:port...] (default: local:1)",
    )
    serve.add_argument("--lru-size", type=int, default=1024)
    serve.add_argument("--characterize-patterns", type=int, default=2000)
    serve.add_argument(
        "--port-file", metavar="PATH",
        help="write the bound port (use with --port 0)",
    )

    query = sub.add_parser("query", help="query a running server")
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7753)
    query.add_argument("--deadline-ms", type=float, default=None)
    _add_query_args(query, with_store=False)

    direct = sub.add_parser(
        "direct", help="compute the same records without a server"
    )
    _add_query_args(direct, with_store=True)

    args = parser.parse_args(argv)
    try:
        return {
            "serve": _cmd_serve,
            "query": _cmd_query,
            "direct": _cmd_direct,
        }[args.command](args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _cmd_serve(args) -> int:
    handle = serve_in_background(
        ServiceConfig(
            host=args.host,
            port=args.port,
            store_dir=args.store,
            pool=args.pool,
            lru_size=args.lru_size,
            characterize_patterns=args.characterize_patterns,
        )
    )
    print(
        "serving on %s:%d (store: %s)"
        % (args.host, handle.port, args.store or "none"),
        flush=True,
    )
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as fp:
            fp.write("%d\n" % handle.port)
    try:
        # The server owns a daemon thread; park until it stops
        # (shutdown op) or we are interrupted.
        while handle._thread.is_alive():
            handle._thread.join(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        handle.stop()
    return 0


def _write_records(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(_canonical(records) + "\n")


def _cmd_query(args) -> int:
    with ServiceClient(args.host, args.port) as client:
        response = client.query(
            args.width,
            args.kind,
            args.years,
            num_patterns=args.patterns,
            seed=args.seed,
            cycle_ns=args.cycle_ns,
            deadline_ms=args.deadline_ms,
        )
    print(json.dumps(response, sort_keys=True, indent=2))
    if args.json:
        if response.get("status") != "ok":
            print(
                "error: non-ok response, not writing %s" % args.json,
                file=sys.stderr,
            )
            return 3
        _write_records(args.json, response["results"])
    return 0


def _cmd_direct(args) -> int:
    records = compute_direct(
        _spec_from_args(args),
        store_dir=args.store,
        characterize_patterns=args.characterize_patterns,
    )
    print(json.dumps(records, sort_keys=True, indent=2))
    if args.json:
        _write_records(args.json, records)
    return 0
