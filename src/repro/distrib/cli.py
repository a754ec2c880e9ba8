"""CLI for the distributed worker fleet.

::

    python -m repro distrib worker --host 0.0.0.0 --port 9100
    python -m repro distrib worker --port 0 --port-file /tmp/port
    python -m repro distrib exec --manifest /shared/campaign
    python -m repro distrib ping --pool tcp:hostA:9100,hostB:9100
    python -m repro distrib shutdown --pool tcp:hostA:9100,hostB:9100

``worker`` serves jobs over TCP until a shutdown op; ``exec`` drains
staged manifest requests; ``ping``/``shutdown`` manage a TCP fleet.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import ReproError


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro distrib",
        description="Distributed campaign workers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    worker = sub.add_parser("worker", help="serve jobs over TCP")
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument(
        "--port", type=int, default=9100,
        help="TCP port (0 = ephemeral; see --port-file)",
    )
    worker.add_argument(
        "--port-file", default=None,
        help="write the bound port here (harness handshake for --port 0)",
    )

    execute = sub.add_parser(
        "exec", help="drain staged manifest requests"
    )
    execute.add_argument(
        "--manifest", required=True,
        help="shared manifest directory (the --pool manifest:DIR one)",
    )
    execute.add_argument(
        "--quiet", action="store_true", help="no per-job progress lines"
    )

    for name, help_text in (
        ("ping", "probe every TCP worker"),
        ("shutdown", "stop every TCP worker"),
    ):
        fleet = sub.add_parser(name, help=help_text)
        fleet.add_argument(
            "--pool", required=True,
            help="tcp pool spec, e.g. tcp:hostA:9100,hostB:9100",
        )
    return parser


def _tcp_pool(spec: str):
    from .pool import TcpPool, parse_pool_spec

    pool = parse_pool_spec(spec)
    if not isinstance(pool, TcpPool):
        raise ReproError(
            "this command needs a tcp pool spec, got %r" % (spec,)
        )
    return pool


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "worker":
            from .worker import serve

            serve(args.host, args.port, args.port_file)
            return 0
        if args.command == "exec":
            from .pool import execute_manifest

            progress = None
            if not args.quiet:
                progress = lambda name: print("running %s" % name)
            executed = execute_manifest(args.manifest, progress=progress)
            print("executed %d job(s)" % executed)
            return 0
        if args.command == "ping":
            pool = _tcp_pool(args.pool)
            for address in pool.addresses:
                response = pool.call(address, {"op": "ping"})
                print(
                    "%s:%d %s"
                    % (
                        address[0],
                        address[1],
                        "ok" if response.get("ok") else "error",
                    )
                )
            return 0
        if args.command == "shutdown":
            pool = _tcp_pool(args.pool)
            answered = pool.shutdown_workers()
            print("stopped %d/%d worker(s)" % (answered, pool.size))
            return 0
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    return 0

