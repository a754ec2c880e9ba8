"""Clients for the reliability service.

Two flavors over the same JSON-lines protocol:

* :class:`ServiceClient` -- synchronous, one socket, strict
  request/response turns.  This is what CI scripts and ordinary tools
  use.
* :class:`AsyncServiceClient` -- asyncio streams, one request at a
  time per instance; open several instances and ``gather`` to exercise
  the server's coalescing (the acceptance soak does exactly that).
"""

from __future__ import annotations

import asyncio
import itertools
import socket
from typing import Dict, List, Optional, Sequence, Union

from ..errors import ServiceError
from ..distrib.framing import decode, encode


def _query_request(
    request_id,
    width: int,
    kind: str,
    years: Union[float, Sequence[float]],
    num_patterns: int = 1000,
    seed: int = 1,
    cycle_ns: Optional[float] = None,
    deadline_ms: Optional[float] = None,
    inject: Optional[str] = None,
) -> Dict:
    request = {
        "op": "query",
        "id": request_id,
        "width": width,
        "kind": kind,
        "years": list(years)
        if isinstance(years, (list, tuple))
        else years,
        "num_patterns": num_patterns,
        "seed": seed,
    }
    if cycle_ns is not None:
        request["cycle_ns"] = cycle_ns
    if deadline_ms is not None:
        request["deadline_ms"] = deadline_ms
    if inject is not None:
        request["inject"] = inject
    return request


class ServiceClient:
    """Blocking JSON-lines client (lazy connect, context manager)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout_s: float = 60.0,
    ):
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._ids = itertools.count(1)

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
            except OSError as exc:
                raise ServiceError(
                    "cannot connect to service at %s:%d: %s"
                    % (self.host, self.port, exc)
                ) from exc
            self._sock = sock
            self._file = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def request(self, message: Dict) -> Dict:
        """One request/response turn (raises on transport failure)."""
        self.connect()
        self._sock.sendall(encode(message))
        line = self._file.readline()
        if not line:
            raise ServiceError(
                "service at %s:%d closed the connection"
                % (self.host, self.port)
            )
        return decode(line)

    def query(
        self,
        width: int,
        kind: str,
        years: Union[float, Sequence[float]],
        **options,
    ) -> Dict:
        """A reliability query; returns the full typed response."""
        return self.request(
            _query_request(next(self._ids), width, kind, years, **options)
        )

    def results(
        self,
        width: int,
        kind: str,
        years: Union[float, Sequence[float]],
        **options,
    ) -> List[Dict]:
        """Query and return just the per-year records; raises
        :class:`~repro.errors.ServiceError` on a non-``ok`` status."""
        response = self.query(width, kind, years, **options)
        if response.get("status") != "ok":
            raise ServiceError(
                "query degraded to %r: %s"
                % (
                    response.get("status"),
                    response.get("error") or response.get("degraded"),
                )
            )
        return response["results"]

    def ping(self) -> bool:
        return (
            self.request({"op": "ping", "id": next(self._ids)}).get(
                "status"
            )
            == "ok"
        )

    def stats(self) -> Dict:
        response = self.request({"op": "stats", "id": next(self._ids)})
        return response["results"][0]

    def shutdown(self) -> None:
        self.request({"op": "shutdown", "id": next(self._ids)})


class AsyncServiceClient:
    """Asyncio JSON-lines client (one in-flight request per instance)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = int(port)
        self._reader = None
        self._writer = None
        self._ids = itertools.count(1)
        self._turn = asyncio.Lock()

    async def connect(self) -> "AsyncServiceClient":
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def request(self, message: Dict) -> Dict:
        await self.connect()
        async with self._turn:
            self._writer.write(encode(message))
            await self._writer.drain()
            line = await self._reader.readline()
        if not line:
            raise ServiceError(
                "service at %s:%d closed the connection"
                % (self.host, self.port)
            )
        return decode(line)

    async def query(
        self,
        width: int,
        kind: str,
        years: Union[float, Sequence[float]],
        **options,
    ) -> Dict:
        return await self.request(
            _query_request(next(self._ids), width, kind, years, **options)
        )


async def gather_queries(
    port: int,
    requests: Sequence[Dict],
    host: str = "127.0.0.1",
) -> List[Dict]:
    """Fire ``requests`` (kwargs for :meth:`AsyncServiceClient.query`)
    concurrently, one connection each -- the coalescing soak helper."""
    clients = [AsyncServiceClient(host, port) for _ in requests]

    async def _one(client: AsyncServiceClient, kwargs: Dict) -> Dict:
        try:
            return await client.query(**kwargs)
        finally:
            await client.close()

    return list(
        await asyncio.gather(
            *(
                _one(client, dict(kwargs))
                for client, kwargs in zip(clients, requests)
            )
        )
    )


def run_concurrent_queries(
    port: int, requests: Sequence[Dict], host: str = "127.0.0.1"
) -> List[Dict]:
    """Synchronous wrapper around :func:`gather_queries` (spins a
    private event loop; usable from tests and scripts)."""
    return asyncio.run(gather_queries(port, requests, host=host))
