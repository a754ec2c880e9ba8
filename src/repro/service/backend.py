"""Compute backend of the reliability service.

A query "design X, workload Y, year t" bottoms out in the same
machinery the experiment suite uses: an
:class:`~repro.experiments.context.ExperimentContext` (store-backed,
so netlists / stress profiles / stream results persist across queries
*and* server restarts) whose ``stream_results`` prices every requested
aging point of one design in a single batched arrival replay.

The backend runs those computations in a ``ProcessPoolExecutor`` --
the same one-context-per-worker idiom as the suite scheduler -- so a
crashing worker kills a process, not the server.  A broken pool is
detected, rebuilt, and surfaced to the serving layer as a typed
:class:`~repro.errors.BackendCrashError`; the serving layer turns that
into a degraded response instead of a dropped connection.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

import numpy as np

from ..config import DEFAULT_SIM_CONFIG, DEFAULT_TECHNOLOGY
from ..errors import BackendCrashError, ServiceError
from ..experiments.context import ExperimentContext
from ..experiments.store import ArtifactStore
from .protocol import QuerySpec

#: Delay percentiles reported per aging point.
PERCENTILES = (50.0, 99.0)


def compute_batch(context: ExperimentContext, spec: QuerySpec) -> List[Dict]:
    """Price one query spec: one record per requested year.

    Every year shares a single value plane; the arrival replay prices
    all years in one vectorized pass (the two-plane engine), so a
    coalesced multi-year build costs barely more than a single year.
    """
    results = context.stream_results(
        spec.width,
        spec.kind,
        list(spec.years),
        spec.num_patterns,
        seed=spec.seed,
    )
    records = []
    for year, result in zip(spec.years, results):
        delays = result.delays
        p50, p99 = (
            float(np.percentile(delays, q)) for q in PERCENTILES
        )
        record = {
            "width": spec.width,
            "kind": spec.kind,
            "year": float(year),
            "num_patterns": spec.num_patterns,
            "seed": spec.seed,
            "cycle_ns": spec.cycle_ns,
            "mean_delay_ns": float(np.mean(delays)),
            "max_delay_ns": float(np.max(delays)),
            "p50_delay_ns": p50,
            "p99_delay_ns": p99,
            "mean_switched_cap": float(np.mean(result.switched_caps)),
            "error_rate": (
                None
                if spec.cycle_ns is None
                else float(np.mean(delays > spec.cycle_ns))
            ),
        }
        records.append(record)
    return records


def build_context(
    store_dir: Optional[str],
    characterize_patterns: int = 2000,
    technology=DEFAULT_TECHNOLOGY,
    config=DEFAULT_SIM_CONFIG,
) -> ExperimentContext:
    """A service-flavored experiment context (store-backed when a
    store directory is configured)."""
    return ExperimentContext(
        technology=technology,
        config=config,
        characterize_patterns=characterize_patterns,
        store=None if store_dir is None else ArtifactStore(store_dir),
    )


def compute_direct(
    spec: QuerySpec,
    store_dir: Optional[str] = None,
    characterize_patterns: int = 2000,
    context: Optional[ExperimentContext] = None,
) -> List[Dict]:
    """The exact records the service would serve, computed in-process.

    This is the identity oracle: CI compares served responses byte-wise
    against this function's output (``python -m repro service direct``).
    """
    ctx = context or build_context(store_dir, characterize_patterns)
    return compute_batch(ctx, spec)


# ----------------------------------------------------------------------
# Worker-process side (ships once through the pool initializer).
# ----------------------------------------------------------------------

_WORKER_CONTEXT: Optional[ExperimentContext] = None
_WORKER_TESTING = False


def _init_backend_worker(
    technology, config, characterize_patterns, store_dir, testing_hooks,
) -> None:
    global _WORKER_CONTEXT, _WORKER_TESTING
    _WORKER_CONTEXT = build_context(
        store_dir,
        characterize_patterns,
        technology=technology,
        config=config,
    )
    _WORKER_TESTING = bool(testing_hooks)


def _apply_inject(inject: Optional[str]) -> None:
    """Deterministic failure injection for tests/CI -- honored only in
    workers started with ``testing_hooks=True``."""
    if not inject or not _WORKER_TESTING:
        return
    if inject == "crash":
        os._exit(3)
    if inject.startswith("sleep:"):
        time.sleep(float(inject.split(":", 1)[1]))


def _backend_batch(payload: Dict) -> List[Dict]:
    _apply_inject(payload.get("inject"))
    spec = QuerySpec(
        width=payload["width"],
        kind=payload["kind"],
        years=tuple(payload["years"]),
        num_patterns=payload["num_patterns"],
        seed=payload["seed"],
        cycle_ns=payload["cycle_ns"],
    )
    return compute_batch(_WORKER_CONTEXT, spec)


class Backend:
    """Process-pool wrapper with crash detection and rebuild.

    Attributes:
        crashes: Broken-pool incidents survived so far (each one
            rebuilt the pool).
    """

    def __init__(
        self,
        store_dir: Optional[str] = None,
        workers: int = 1,
        characterize_patterns: int = 2000,
        technology=DEFAULT_TECHNOLOGY,
        config=DEFAULT_SIM_CONFIG,
        testing_hooks: bool = False,
    ):
        self.store_dir = store_dir
        self.workers = max(1, int(workers))
        self.characterize_patterns = characterize_patterns
        self.technology = technology
        self.config = config
        self.testing_hooks = testing_hooks
        self.crashes = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_backend_worker,
                initargs=(
                    self.technology,
                    self.config,
                    self.characterize_patterns,
                    self.store_dir,
                    self.testing_hooks,
                ),
            )
        return self._pool

    def reset(self) -> None:
        """Tear down a (possibly broken) pool; the next call rebuilds."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        self.reset()

    async def run(
        self, spec: QuerySpec, inject: Optional[str] = None
    ) -> List[Dict]:
        """Price ``spec`` in a worker; typed errors on pool death.

        Raises:
            BackendCrashError: A worker died (killed / segfault); the
                pool has been rebuilt for subsequent queries.
            ServiceError: The computation itself raised.
        """
        import asyncio

        payload = spec.to_payload()
        payload["inject"] = inject
        pool = self._ensure_pool()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                pool, _backend_batch, payload
            )
        except BrokenProcessPool as exc:
            self.crashes += 1
            self.reset()
            raise BackendCrashError(
                "backend worker died pricing %s (pool rebuilt): %s"
                % (spec.group_key(), exc)
            ) from exc
        except Exception as exc:
            raise ServiceError(
                "backend failed pricing %s: %s" % (spec.group_key(), exc)
            ) from exc
