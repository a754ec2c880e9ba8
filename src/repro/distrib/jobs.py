"""Worker-side job execution.

Every transport (:class:`~.pool.LocalPool` processes, ``distrib
worker`` TCP daemons, ``distrib exec`` manifest runners) funnels into
:func:`run_job`: one JSON request dict in, one JSON-able result dict
out.  Heavy state -- characterized campaigns, experiment contexts --
is rebuilt deterministically from the spec and cached per process
keyed by the spec's canonical JSON, so a worker serving many batches
of the same campaign characterizes it exactly once.

Job kinds:

``fault_sites``
    ``{"job": "fault_sites", "spec": {...}, "sites": [3, 4, 9]}`` --
    rebuild the campaign via
    :func:`repro.faults.campaign.campaign_from_spec` and run the listed
    site indices.  Result: ``{"reports": [[index, report_dict], ...]}``
    (:meth:`SiteReport.to_dict` payloads, as the store saves them).

``mc_shard``
    ``{"job": "mc_shard", "mc": {...}, "die_range": [lo, hi]}`` --
    price one die range via
    :func:`repro.montecarlo.runner.run_mc_shard`.  Result: the shard
    payload (fingerprint + die_range + reduction planes).

``experiment``
    ``{"job": "experiment", "name": "fig7", "scale": 1.0,
    "characterize_patterns": 2000}`` -- run one
    registered experiment (``ExperimentSpec.run`` prefetches its
    declared stream demands: with a store, the suite's ``prefetch``
    jobs priced them already).  Result: ``{"title": ...,
    "rendered": ..., "elapsed": ..., "store_delta": {...},
    "unplanned_rows": n, "failed_claims": n}`` (the store counters the
    run moved, the stream rows it priced outside the prefetch, and the
    paper claims it checked that do not hold).

``warmup``
    ``{"job": "warmup", "design": [32, "column"], "scale": 1.0,
    "characterize_patterns": 2000, "store": DIR}`` -- characterize one
    design (or, with ``"netlist"`` in place of ``"design"``, build one
    netlist) into the store, so later experiment jobs find it warm.
    Result: ``{"elapsed": ..., "store_delta": {...}}``.

``plan``
    ``{"job": "plan", "name": "fig26", "scale": 1.0,
    "characterize_patterns": 2000, "store": DIR}`` -- list the value
    planes on which the named experiment's declared stream demands
    have rows the store lacks.  Result: ``{"planes": [[NETLIST_FP,
    STIMULUS_DIGEST, WORK], ...], "store_delta": {...}}``, ``WORK``
    being cells x patterns x missing rows.

``prefetch``
    ``{"job": "prefetch", "plane": [NETLIST_FP, STIMULUS_DIGEST],
    "experiments": ["fig26", "claims"], "scale": 1.0,
    "characterize_patterns": 2000, "store": DIR}`` -- price into the
    store the rows of one value plane that the named experiments'
    declared demands ask for
    (:meth:`~repro.experiments.context.ExperimentContext.prefetch`),
    with one value pass and one replay.  Result: ``{"elapsed": ...,
    "rows": n, "store_delta": {...}}``.

``variant_shard``
    ``{"job": "variant_shard", "sweep": {...}, "engine": "delta",
    "variants": [0, 5, 9]}`` -- rebuild the variant sweep (parent
    netlist, characterization, :class:`repro.timing.delta.DeltaBase`)
    from the :class:`repro.experiments.sweep.SweepSpec` dict and
    evaluate the listed variant indices.  Result:
    ``{"records": [[index, record_dict], ...]}`` (engine-independent
    :func:`~repro.experiments.sweep._result_record` payloads).

``query``
    ``{"job": "query", "query": {"width": 8, "kind": "column",
    "years": [0.0, 10.0], "num_patterns": 200, "seed": 1,
    "cycle_ns": 8.0}, "characterize_patterns": 300, "store": DIR}`` --
    price one reliability-service query (:func:`compute_batch`) on the
    worker's cached context, the same context an ``experiment`` job of
    that scale, characterization length and store gets.  Result:
    ``{"records": [...]}``, one record per requested year.  An
    ``"inject"`` field (``"crash"`` / ``"sleep:S"``) is honored only
    when the worker runs with test hooks on
    (:func:`repro.experiments._testing.apply_inject`).

``ping``
    Liveness probe.  Result: ``{"pong": true}``.

``experiment``, ``warmup``, ``plan``, ``prefetch``, ``query`` and
``mc_shard`` requests take an optional ``"store"``: an
:class:`~repro.experiments.store.ArtifactStore` directory the
worker's context reads and writes.  It changes no
result, so it enters no shard fingerprint or store key; without it the
worker keeps its state in :data:`_STATE_CACHE` alone.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

import numpy as np

from ..errors import ConfigError

#: Job kinds :func:`run_job` dispatches on.
JOB_KINDS = (
    "fault_sites", "mc_shard", "experiment", "warmup", "plan",
    "prefetch", "variant_shard", "query", "ping",
)

#: Delay percentiles a ``query`` record reports per aging point.
PERCENTILES = (50.0, 99.0)

#: Per-process cache of rebuilt heavy state, keyed by
#: ``(kind, canonical-JSON-of-spec)``.  Bounded in practice: a worker
#: serves one campaign / context shape per run.
_STATE_CACHE: Dict = {}


def _cache_key(kind: str, spec: Dict) -> str:
    return kind + ":" + json.dumps(spec, sort_keys=True, separators=(",", ":"))


def clear_state_cache() -> None:
    """Drop every cached campaign/context (tests and long-lived
    daemons switching workloads)."""
    _STATE_CACHE.clear()


def _campaign_for(spec: Dict):
    from ..faults.campaign import campaign_from_spec

    key = _cache_key("campaign", spec)
    if key not in _STATE_CACHE:
        _STATE_CACHE[key] = campaign_from_spec(spec)
    return _STATE_CACHE[key]


def _context_for(request: Dict):
    """The experiment context a suite job names (scale,
    characterization length and optional store directory)."""
    from ..experiments.context import ExperimentContext
    from ..experiments.store import ArtifactStore

    scale = float(request.get("scale", 1.0))
    patterns = int(request.get("characterize_patterns", 2000))
    store = request.get("store")
    key = _cache_key(
        "context", {"scale": scale, "patterns": patterns, "store": store}
    )
    if key not in _STATE_CACHE:
        _STATE_CACHE[key] = ExperimentContext(
            scale=scale,
            characterize_patterns=patterns,
            store=ArtifactStore(store) if store is not None else None,
        )
    return _STATE_CACHE[key]


def _run_fault_sites(request: Dict) -> Dict:
    spec = request.get("spec")
    if not isinstance(spec, dict):
        raise ConfigError(
            "fault_sites job needs a 'spec' dict, got %r" % (spec,)
        )
    sites = request.get("sites")
    if not isinstance(sites, list):
        raise ConfigError(
            "fault_sites job needs a 'sites' list, got %r" % (sites,)
        )
    campaign = _campaign_for(spec)
    reports = []
    for raw in sites:
        index = int(raw)
        if not 0 <= index < len(campaign.faults):
            raise ConfigError(
                "site index %d outside [0, %d)"
                % (index, len(campaign.faults))
            )
        report = campaign.run_site(
            campaign.faults[index], campaign.site_ids[index]
        )
        reports.append([index, report.to_dict()])
    return {"reports": reports}


def _run_mc_shard(request: Dict) -> Dict:
    from ..montecarlo.runner import run_mc_shard

    job = request.get("mc")
    if not isinstance(job, dict):
        raise ConfigError("mc_shard job needs an 'mc' dict, got %r" % (job,))
    die_range = request.get("die_range")
    if not (isinstance(die_range, (list, tuple)) and len(die_range) == 2):
        raise ConfigError(
            "mc_shard job needs a 2-element 'die_range', got %r"
            % (die_range,)
        )
    return run_mc_shard(
        job, (int(die_range[0]), int(die_range[1])), request.get("store")
    )


def _sweep_for(spec: Dict):
    from ..experiments.sweep import SweepSpec, VariantSweep

    key = _cache_key("sweep", spec)
    if key not in _STATE_CACHE:
        _STATE_CACHE[key] = VariantSweep(SweepSpec.from_dict(spec))
    return _STATE_CACHE[key]


def _run_variant_shard(request: Dict) -> Dict:
    spec = request.get("sweep")
    if not isinstance(spec, dict):
        raise ConfigError(
            "variant_shard job needs a 'sweep' dict, got %r" % (spec,)
        )
    indices = request.get("variants")
    if not isinstance(indices, list):
        raise ConfigError(
            "variant_shard job needs a 'variants' list, got %r"
            % (indices,)
        )
    engine = request.get("engine", "delta")
    sweep = _sweep_for(spec)
    records = []
    for raw in indices:
        index = int(raw)
        if not 0 <= index < len(sweep.variants):
            raise ConfigError(
                "variant index %d outside [0, %d)"
                % (index, len(sweep.variants))
            )
        record, _ = sweep.evaluate(index, engine=engine)
        records.append([index, record])
    return {"records": records}


def _named_spec(request: Dict):
    from ..experiments.registry import get_experiment

    name = request.get("name")
    if not isinstance(name, str):
        raise ConfigError(
            "%s job needs a 'name' string, got %r"
            % (request.get("job"), name)
        )
    return get_experiment(name)


def _run_experiment(request: Dict) -> Dict:
    from ..experiments.scheduler import _delta, _snapshot

    spec = _named_spec(request)
    context = _context_for(request)
    before = _snapshot(context)
    unplanned = context.unplanned_rows
    start = time.perf_counter()
    result = spec.run(context)
    return {
        "title": spec.title,
        "rendered": result.render(),
        "elapsed": time.perf_counter() - start,
        "store_delta": _delta(context, before),
        "unplanned_rows": context.unplanned_rows - unplanned,
        "failed_claims": getattr(result, "failed_claims", 0),
    }


def _run_warmup(request: Dict) -> Dict:
    from ..experiments.scheduler import _delta, _snapshot

    context = _context_for(request)
    if "design" in request:
        build, target = context.factory, request["design"]
    else:
        build, target = context.netlist, request.get("netlist")
    if not (isinstance(target, (list, tuple)) and len(target) == 2):
        raise ConfigError(
            "warmup job needs a [width, kind] 'design' or 'netlist',"
            " got %r" % (target,)
        )
    before = _snapshot(context)
    start = time.perf_counter()
    build(int(target[0]), str(target[1]))
    return {
        "elapsed": time.perf_counter() - start,
        "store_delta": _delta(context, before),
    }


def _run_plan(request: Dict) -> Dict:
    from ..experiments.scheduler import _delta, _snapshot

    spec = _named_spec(request)
    context = _context_for(request)
    before = _snapshot(context)
    planes = []
    for plane, group in context.plane_groups(spec.demands(context)).items():
        netlist, stimulus, _, keys = context.unpriced(group)
        if keys:
            patterns = len(next(iter(stimulus.values())))
            planes.append(
                [plane[0], plane[1], len(netlist.cells) * patterns * len(keys)]
            )
    return {"planes": planes, "store_delta": _delta(context, before)}


def _run_prefetch(request: Dict) -> Dict:
    from ..experiments.registry import get_experiment
    from ..experiments.scheduler import _delta, _snapshot

    plane = request.get("plane")
    names = request.get("experiments")
    if not (isinstance(plane, list) and len(plane) == 2):
        raise ConfigError(
            "prefetch job needs a [netlist, stimulus] 'plane', got %r"
            % (plane,)
        )
    if not isinstance(names, list):
        raise ConfigError(
            "prefetch job needs an 'experiments' list, got %r" % (names,)
        )
    context = _context_for(request)
    before = _snapshot(context)
    start = time.perf_counter()
    demands = [
        demand
        for name in names
        for demand in get_experiment(str(name)).demands(context)
    ]
    priced = context.prefetch(demands, planes=[tuple(plane)])
    return {
        "elapsed": time.perf_counter() - start,
        "rows": sum(priced.values()),
        "store_delta": _delta(context, before),
    }


def compute_batch(context, query: Dict) -> List[Dict]:
    """Price one reliability query: one record per requested year.

    Every year shares a single value plane; the arrival replay prices
    all years in one vectorized pass (the two-plane engine), so a
    coalesced multi-year build costs barely more than a single year.
    Switched capacitance is the same at every year: one power pass.
    """
    years = query["years"]
    results = context.stream_results(
        query["width"],
        query["kind"],
        list(years),
        query["num_patterns"],
        seed=query["seed"],
    )
    switched_caps = context.switched_caps(
        query["width"],
        query["kind"],
        query["num_patterns"],
        seed=query["seed"],
    )
    mean_switched_cap = float(np.mean(switched_caps))
    cycle_ns = query["cycle_ns"]
    records = []
    for year, result in zip(years, results):
        delays = result.delays
        p50, p99 = (
            float(np.percentile(delays, q)) for q in PERCENTILES
        )
        records.append({
            "width": query["width"],
            "kind": query["kind"],
            "year": float(year),
            "num_patterns": query["num_patterns"],
            "seed": query["seed"],
            "cycle_ns": cycle_ns,
            "mean_delay_ns": float(np.mean(delays)),
            "max_delay_ns": float(np.max(delays)),
            "p50_delay_ns": p50,
            "p99_delay_ns": p99,
            "mean_switched_cap": mean_switched_cap,
            "error_rate": (
                None
                if cycle_ns is None
                else float(np.mean(delays > cycle_ns))
            ),
        })
    return records


def _run_query(request: Dict) -> Dict:
    from ..experiments._testing import apply_inject

    query = request.get("query")
    if not isinstance(query, dict):
        raise ConfigError(
            "query job needs a 'query' dict, got %r" % (query,)
        )
    apply_inject(request.get("inject"))
    return {"records": compute_batch(_context_for(request), query)}


def run_job(request: Dict) -> Dict:
    """Execute one JSON job request; returns a JSON-able result dict.

    Raises typed :class:`~repro.errors.ReproError` subclasses on bad
    requests; transports catch and ship them back as error responses.
    """
    if not isinstance(request, dict):
        raise ConfigError("job request must be a dict, got %r" % (request,))
    kind = request.get("job")
    if kind == "ping":
        return {"pong": True}
    if kind == "fault_sites":
        return _run_fault_sites(request)
    if kind == "mc_shard":
        return _run_mc_shard(request)
    if kind == "experiment":
        return _run_experiment(request)
    if kind == "warmup":
        return _run_warmup(request)
    if kind == "plan":
        return _run_plan(request)
    if kind == "prefetch":
        return _run_prefetch(request)
    if kind == "variant_shard":
        return _run_variant_shard(request)
    if kind == "query":
        return _run_query(request)
    import difflib

    hints = difflib.get_close_matches(str(kind), JOB_KINDS, n=1)
    hint = " (did you mean %r?)" % hints[0] if hints else ""
    raise ConfigError(
        "unknown job kind %r%s; known kinds: %s"
        % (kind, hint, ", ".join(JOB_KINDS))
    )
