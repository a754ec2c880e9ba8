"""The ``distrib worker`` TCP daemon.

A deliberately small newline-delimited-JSON server (framing from
:mod:`repro.distrib.framing`): each connection sends one request
per line and reads one response line back.  A request is either a
control op -- ``{"op": "ping"}`` / ``{"op": "shutdown"}`` -- or a job
dict executed by :func:`repro.distrib.jobs.run_job`.

Responses are the standard envelope::

    {"ok": true, "result": {...}, "protocol": "repro-distrib",
     "version": 1}
    {"ok": false, "error": "...", "protocol": "repro-distrib",
     "version": 1}

Jobs run on the connection's thread; heavy state is cached per daemon
process (see :mod:`repro.distrib.jobs`), so serving many batches of
one campaign characterizes it once.  ``--port 0`` binds an ephemeral
port; ``--port-file`` publishes the bound port for test/CI harnesses.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Dict, Optional, Tuple

from ..errors import ServiceError
from .framing import decode, encode
from .jobs import run_job

#: Protocol tag + version stamped into every response.
PROTOCOL = "repro-distrib"
PROTOCOL_VERSION = 1


def _envelope(payload: Dict) -> Dict:
    payload["protocol"] = PROTOCOL
    payload["version"] = PROTOCOL_VERSION
    return payload


def handle_request(request: Dict) -> Tuple[Dict, bool]:
    """One request -> (response, keep_serving)."""
    op = request.get("op")
    if op == "ping":
        return _envelope({"ok": True, "result": {"pong": True}}), True
    if op == "shutdown":
        return _envelope({"ok": True, "result": {"stopping": True}}), False
    try:
        return _envelope({"ok": True, "result": run_job(request)}), True
    except BaseException as exc:
        return (
            _envelope(
                {"ok": False, "error": "%s: %s" % (type(exc).__name__, exc)}
            ),
            True,
        )


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        for line in self.rfile:
            if not line.strip():
                continue
            try:
                request = decode(line)
            except ServiceError as exc:
                self.wfile.write(
                    encode(_envelope({"ok": False, "error": str(exc)}))
                )
                self.wfile.flush()
                continue
            response, keep_serving = handle_request(request)
            self.wfile.write(encode(response))
            self.wfile.flush()
            if not keep_serving:
                self.server.request_stop()
                return


class WorkerServer(socketserver.ThreadingTCPServer):
    """Threaded JSON-lines job server (one thread per connection)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self._stop = threading.Event()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def request_stop(self) -> None:
        self._stop.set()
        # shutdown() must come from another thread than serve_forever's.
        threading.Thread(target=self.shutdown, daemon=True).start()

    def serve_until_shutdown(self) -> None:
        self.serve_forever(poll_interval=0.1)


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: Optional[str] = None,
) -> None:
    """Run one worker daemon until a shutdown op arrives."""
    with WorkerServer(host, port) as server:
        if port_file is not None:
            with open(port_file, "w") as stream:
                stream.write("%d\n" % server.port)
        server.serve_until_shutdown()
