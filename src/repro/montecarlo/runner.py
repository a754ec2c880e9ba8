"""End-to-end Monte Carlo driver: sample, price, analyze, persist.

:func:`run_montecarlo` is the one entry point behind both the
``python -m repro mc`` CLI and the registered ``mc_*`` experiments.  It
wires the subsystem into the existing scale-out fabric:

* the :class:`~repro.experiments.context.ExperimentContext` supplies
  the (store-cached) netlist and characterized factory;
* priced populations and derived surfaces persist in the
  :class:`~repro.experiments.store.ArtifactStore` under keys that embed
  the :meth:`~repro.montecarlo.spec.MonteCarloSpec.fingerprint`, so a
  warm run replays nothing and byte-identically reproduces the cold
  run's report;
* ``pool=`` shards the die axis over a :mod:`repro.distrib` worker
  pool (``"local:4"`` or any :class:`~repro.distrib.pool.WorkerPool`):
  contiguous :func:`~repro.experiments.scheduler.shard_ranges`, each
  priced by :func:`run_mc_shard` from the JSON :func:`mc_job_spec`.
  Per-die substreams and per-row replay make the merged result
  **bit-identical** for every pool size, which the CI gate
  (``--pool local:4`` vs serial) checks end to end.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..arith.reference import count_zeros
from ..config import (
    DEFAULT_SIM_CONFIG,
    DEFAULT_TECHNOLOGY,
    SimulationConfig,
    Technology,
)
from ..errors import ConfigError
from ..timing.value_cache import netlist_fingerprint, technology_fingerprint
from ..workloads.generators import uniform_operands
from .analytics import MonteCarloResult, analyze_population
from .population import PopulationReductions, price_population
from .sampler import CorrelatedVthSampler
from .spec import MonteCarloSpec

_KINDS = ("am", "column", "row")


def _judged_operand(kind: str, md: np.ndarray, mr: np.ndarray):
    """The operand the AHL judges (mirrors ``AgingAwareMultiplier
    .judged_operand``): md for column bypass, mr otherwise."""
    return md if kind == "column" else mr


def _resolve_skip(width: int, skip: Optional[int]) -> int:
    if skip is None:
        skip = width // 2 - 1
    if not 0 <= skip < width:
        raise ConfigError(
            "skip=%r out of the AHL-legal range [0, %d)" % (skip, width)
        )
    return skip


def population_key(
    spec: MonteCarloSpec,
    width: int,
    kind: str,
    skip: int,
    netlist_fp: str,
    technology_fp: str,
    config_fp: str,
    characterize_patterns: int,
) -> Dict:
    """Store key of a priced population: sampler-config fingerprint x
    design x characterization x simulation config."""
    from ..experiments.context import CHARACTERIZE_SEED

    return {
        "netlist": netlist_fp,
        "technology": technology_fp,
        "sim_config": config_fp,
        "characterize_patterns": characterize_patterns,
        "characterize_seed": CHARACTERIZE_SEED,
        "width": width,
        "kind": kind,
        "skip": skip,
        "spec": spec.fingerprint(),
    }


def base_period_demand(spec: MonteCarloSpec, width: int, kind: str, context):
    """The fresh row on the population's stimulus, whose slowest
    pattern sets the base clock period (a
    :class:`~repro.experiments.context.StreamDemand`)."""
    from ..experiments.context import StreamDemand

    md, mr = uniform_operands(width, spec.num_patterns, spec.stream_seed)
    netlist = context.netlist(width, kind)
    return StreamDemand(
        width, kind, {"md": md, "mr": mr}, np.ones((1, len(netlist.cells)))
    )


def _pricing_inputs(spec: MonteCarloSpec, width: int, kind: str, context):
    """Shared deterministic pricing setup: factory, stimulus, zero
    counts and the clock grid derived from the fresh critical path."""
    factory = context.factory(width, kind)
    netlist = factory.netlist
    demand = base_period_demand(spec, width, kind, context)
    stimulus = demand.stimulus
    zeros = count_zeros(
        _judged_operand(kind, stimulus["md"], stimulus["mr"]), width
    )
    (fresh,) = context.price_demand(demand)
    base_period_ns = float(fresh.delays.max())
    clock_ns = tuple(
        float(f) * base_period_ns for f in spec.clock_fractions
    )
    return factory, netlist, stimulus, zeros, clock_ns, base_period_ns


def mc_job_spec(
    spec: MonteCarloSpec,
    width: int,
    kind: str,
    skip: Optional[int],
    characterize_patterns: int = 2000,
) -> Dict:
    """The JSON-able job dict remote shard workers (and ``mc merge``)
    rebuild the pricing problem from -- default technology/config only,
    since those cannot travel as JSON."""
    return {
        "spec": spec.fingerprint(),
        "width": int(width),
        "kind": kind,
        "skip": _resolve_skip(width, skip),
        "characterize_patterns": int(characterize_patterns),
    }


def _shard_fingerprint(job: Dict) -> Dict:
    """Shard-compatibility identity: everything that shapes the priced
    numbers."""
    return {
        "spec": dict(job["spec"]),
        "width": int(job["width"]),
        "kind": job["kind"],
        "skip": int(job["skip"]),
        "characterize_patterns": int(job["characterize_patterns"]),
    }


def run_mc_shard(job: Dict, die_range, store: Optional[str] = None) -> Dict:
    """Price one contiguous die range from a JSON job spec.

    Returns a JSON-safe shard payload (``fingerprint`` + ``die_range``
    + the :meth:`PopulationReductions.to_payload` planes as lists);
    :func:`merge_mc_shards` fuses the shards back into the exact
    single-host result.  ``store`` is an optional artifact-store
    directory the characterized design is loaded from (it changes no
    number, so it is not part of the fingerprint).
    """
    from ..experiments.context import ExperimentContext
    from ..experiments.store import ArtifactStore

    spec = MonteCarloSpec.from_overrides(**dict(job.get("spec") or {}))
    width = int(job.get("width", 8))
    kind = job.get("kind", "column")
    skip = _resolve_skip(width, job.get("skip"))
    context = ExperimentContext(
        characterize_patterns=int(job.get("characterize_patterns", 2000)),
        store=ArtifactStore(store) if store is not None else None,
    )
    factory, netlist, stimulus, zeros, clock_ns, _ = _pricing_inputs(
        spec, width, kind, context
    )
    lo, hi = int(die_range[0]), int(die_range[1])
    if not 0 <= lo <= hi <= spec.num_dies:
        raise ConfigError(
            "die_range (%d, %d) outside [0, %d]" % (lo, hi, spec.num_dies)
        )
    sampler = CorrelatedVthSampler(len(netlist.cells), spec)
    reductions = price_population(
        factory, sampler, spec, stimulus, zeros, width, skip, clock_ns,
        config=context.config, die_range=(lo, hi),
    )
    payload = reductions.to_payload()
    job = dict(job)
    job.setdefault("skip", skip)
    return {
        "fingerprint": _shard_fingerprint(job),
        "die_range": [lo, hi],
        "meta": payload["meta"],
        "arrays": {
            name: np.asarray(array).tolist()
            for name, array in payload["arrays"].items()
        },
    }


def merge_mc_shards(
    job: Dict, shards, num_bins: int = 32
) -> MonteCarloResult:
    """Fuse per-host shard payloads into the single-host result.

    Shards must share this job's fingerprint and their die ranges must
    tile ``[0, num_dies)`` contiguously; the merged analysis is then
    byte-identical (as rendered text and sorted JSON) to a serial
    :func:`run_montecarlo` with the same parameters.
    """
    from ..experiments.context import ExperimentContext

    spec = MonteCarloSpec.from_overrides(**dict(job.get("spec") or {}))
    width = int(job.get("width", 8))
    kind = job.get("kind", "column")
    skip = _resolve_skip(width, job.get("skip"))
    job = dict(job)
    job.setdefault("skip", skip)
    want_fp = _shard_fingerprint(job)
    if not shards:
        raise ConfigError("no shards to merge")
    for shard in shards:
        if shard.get("fingerprint") != want_fp:
            raise ConfigError(
                "shard was priced under a different configuration"
                " (fingerprint mismatch); refusing to merge"
            )
    shards = sorted(shards, key=lambda s: int(s["die_range"][0]))
    cursor = 0
    for shard in shards:
        lo, hi = (int(v) for v in shard["die_range"])
        if lo != cursor:
            raise ConfigError(
                "shard die ranges do not tile [0, %d) contiguously:"
                " expected a shard starting at die %d, got (%d, %d)"
                % (spec.num_dies, cursor, lo, hi)
            )
        cursor = hi
    if cursor != spec.num_dies:
        raise ConfigError(
            "shards cover %d of %d dies; refusing to merge a partial"
            " population" % (cursor, spec.num_dies)
        )
    parts = [
        PopulationReductions.from_payload(
            {"meta": shard["meta"], "arrays": shard["arrays"]}
        )
        for shard in shards
    ]
    reductions = PopulationReductions.concat(parts)
    context = ExperimentContext(
        characterize_patterns=int(job.get("characterize_patterns", 2000)),
    )
    _, netlist, _, _, _, base_period_ns = _pricing_inputs(
        spec, width, kind, context
    )
    design = {
        "width": width,
        "kind": kind,
        "num_cells": len(netlist.cells),
        "characterize_patterns": int(
            job.get("characterize_patterns", 2000)
        ),
    }
    return analyze_population(
        reductions,
        spec,
        base_period_ns,
        design=design,
        config=context.config,
        num_bins=num_bins,
    )


def run_montecarlo(
    spec: MonteCarloSpec,
    width: int = 8,
    kind: str = "column",
    skip: Optional[int] = None,
    store=None,
    context=None,
    technology: Technology = DEFAULT_TECHNOLOGY,
    config: SimulationConfig = DEFAULT_SIM_CONFIG,
    characterize_patterns: int = 2000,
    num_bins: int = 32,
    pool=None,
) -> MonteCarloResult:
    """Sample, price and analyze one die population.

    Args:
        spec: The population configuration (validated, frozen).
        width / kind: Target multiplier design.
        skip: AHL Skip-n the latency/yield surfaces assume (default
            ``width // 2 - 1``, the architecture's default).
        store: Optional persistent artifact store; priced populations
            and surfaces are fingerprint-keyed there.
        context: Optional shared experiment context (its store wins
            over ``store``; its technology/config win too).
        pool: Optional :class:`~repro.distrib.pool.WorkerPool` or pool
            spec string (``"local:4"``); the die axis is sharded over
            it (default technology/config only) with bit-identical
            results for any pool size.

    Returns:
        The population's :class:`~repro.montecarlo.analytics
        .MonteCarloResult`.
    """
    # Local imports: repro.experiments imports this package back via
    # the registered mc_* experiments, so the edge must stay lazy.
    from ..experiments.context import ExperimentContext
    from ..experiments.scheduler import shard_ranges
    from ..experiments.store import ArtifactStore, config_fingerprint

    if kind not in _KINDS:
        raise ConfigError(
            "unknown multiplier kind %r (known: %s)" % (kind, _KINDS)
        )
    skip = _resolve_skip(width, skip)
    if isinstance(store, str):
        store = ArtifactStore(store)
    if context is None:
        context = ExperimentContext(
            technology=technology,
            config=config,
            characterize_patterns=characterize_patterns,
            store=store,
        )
    else:
        technology = context.technology
        config = context.config
        characterize_patterns = context.characterize_patterns
        store = context.store
    if pool is not None and (
        technology is not DEFAULT_TECHNOLOGY
        or config is not DEFAULT_SIM_CONFIG
    ):
        raise ConfigError(
            "distributed MC shards rebuild state from a JSON job spec,"
            " which only carries the default technology/config"
        )

    # Base clock period inputs: the population-free fresh critical path
    # over this stimulus (a priced ones row: a ``stream`` artifact).
    factory, netlist, stimulus, zeros, clock_ns, base_period_ns = (
        _pricing_inputs(spec, width, kind, context)
    )

    key = None
    reductions = None
    if store is not None:
        key = population_key(
            spec,
            width,
            kind,
            skip,
            netlist_fingerprint(netlist),
            technology_fingerprint(technology),
            config_fingerprint(config),
            characterize_patterns,
        )
        payload = store.load("population", key)
        if payload is not None:
            reductions = PopulationReductions.from_payload(payload)

    if reductions is None:
        sampler = CorrelatedVthSampler(len(netlist.cells), spec)
        if pool is not None and spec.num_dies > 1:
            from ..distrib.pool import open_pool, run_mc_pooled

            job = mc_job_spec(
                spec, width, kind, skip, characterize_patterns
            )
            with open_pool(pool) as workers:
                payloads = run_mc_pooled(
                    workers,
                    job,
                    shard_ranges(spec.num_dies, workers.size),
                    store=store.directory if store is not None else None,
                )
            reductions = PopulationReductions.concat([
                PopulationReductions.from_payload(
                    {"meta": p["meta"], "arrays": p["arrays"]}
                )
                for p in payloads
            ])
        else:
            reductions = price_population(
                factory,
                sampler,
                spec,
                stimulus,
                zeros,
                width,
                skip,
                clock_ns,
                config=config,
            )
        if store is not None:
            store.save("population", key, reductions.to_payload())

    design = {
        "width": width,
        "kind": kind,
        "num_cells": len(netlist.cells),
        "characterize_patterns": characterize_patterns,
    }
    result = analyze_population(
        reductions,
        spec,
        base_period_ns,
        design=design,
        config=config,
        num_bins=num_bins,
    )
    if store is not None:
        surface_key = dict(key)
        surface_key["num_bins"] = int(num_bins)
        store.get_or_build(
            "surface", surface_key, lambda: result.to_dict()
        )
    return result
