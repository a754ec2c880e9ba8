"""Compute backend of the reliability service.

A query "design X, workload Y, year t" bottoms out in the same
machinery the experiment suite uses: a ``query`` job
(:mod:`repro.distrib.jobs`) prices every requested aging point of one
design in a single batched arrival replay, on the worker's cached,
store-backed :class:`~repro.experiments.context.ExperimentContext` --
so netlists, stress profiles and stream results persist across queries
*and* server restarts.

The backend sends those jobs through a :class:`~repro.distrib.pool.
WorkerPool` (``--pool``, ``local:1`` by default), so a crashing worker
kills a process, not the server, and :class:`~repro.distrib.pool.
LocalPool` owns the crash policy.  A job whose worker died, or a
transport that failed, surfaces to the serving layer as a typed
:class:`~repro.errors.BackendCrashError`; the serving layer turns that
into a degraded response instead of a dropped connection.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from ..distrib.jobs import run_job
from ..distrib.pool import WORKER_DIED, parse_pool_spec
from ..errors import BackendCrashError, DistribError, ServiceError
from .protocol import QuerySpec


def _query_job(
    spec: QuerySpec,
    store_dir: Optional[str],
    characterize_patterns: int,
) -> Dict:
    return {
        "job": "query",
        "query": spec.to_payload(),
        "characterize_patterns": characterize_patterns,
        "store": store_dir,
    }


def compute_direct(
    spec: QuerySpec,
    store_dir: Optional[str] = None,
    characterize_patterns: int = 2000,
) -> List[Dict]:
    """The exact records the service would serve, computed in-process.

    This is the identity oracle: CI compares served responses byte-wise
    against this function's output (``python -m repro service direct``).
    """
    return run_job(
        _query_job(spec, store_dir, characterize_patterns)
    )["records"]


class Backend:
    """Prices query specs on a :class:`~repro.distrib.pool.WorkerPool`.

    Every build enters the pool from one dispatcher thread, because a
    ``LocalPool`` must not be entered from several threads at once.

    Attributes:
        crashes: Builds lost to a dead worker or a failed transport.
    """

    def __init__(
        self,
        pool: str = "local:1",
        store_dir: Optional[str] = None,
        characterize_patterns: int = 2000,
    ):
        self.pool = parse_pool_spec(pool)
        self.store_dir = store_dir
        self.characterize_patterns = characterize_patterns
        self.crashes = 0
        self._closed = False
        self._dispatcher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-backend"
        )

    def close(self) -> None:
        """Close the pool after the builds already queued; returns at
        once (idempotent).  A later :meth:`run` raises RuntimeError."""
        if not self._closed:
            self._closed = True
            self._dispatcher.submit(self.pool.close)
            self._dispatcher.shutdown(wait=False)

    async def run(
        self, spec: QuerySpec, inject: Optional[str] = None
    ) -> List[Dict]:
        """Price ``spec`` in a worker; typed errors on worker death.

        Raises:
            BackendCrashError: The worker died (killed / segfault) or
                the transport failed; the pool serves later queries.
            ServiceError: The computation itself raised.
        """
        request = _query_job(
            spec, self.store_dir, self.characterize_patterns
        )
        if inject is not None:
            request["inject"] = inject
        loop = asyncio.get_running_loop()
        try:
            (response,) = await loop.run_in_executor(
                self._dispatcher, self.pool.map, [request]
            )
        except DistribError as exc:
            self.crashes += 1
            raise BackendCrashError(
                "backend pool failed pricing %s: %s"
                % (spec.group_key(), exc)
            ) from exc
        if response.get("ok"):
            return response["result"]["records"]
        error = response.get("error", "unknown error")
        if error == WORKER_DIED:
            self.crashes += 1
            raise BackendCrashError(
                "backend worker died pricing %s: %s"
                % (spec.group_key(), error)
            )
        raise ServiceError(
            "backend failed pricing %s: %s" % (spec.group_key(), error)
        )
