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
    (:meth:`SiteReport.to_dict` payloads, checkpoint-compatible).

``mc_shard``
    ``{"job": "mc_shard", "mc": {...}, "die_range": [lo, hi]}`` --
    price one die range via
    :func:`repro.montecarlo.runner.run_mc_shard`.  Result: the shard
    payload (fingerprint + die_range + reduction planes).

``experiment``
    ``{"job": "experiment", "name": "fig7", "scale": 1.0,
    "characterize_patterns": 2000}`` -- run one
    registered experiment.  Result:
    ``{"title": ..., "rendered": ..., "elapsed": ...}``.

``variant_shard``
    ``{"job": "variant_shard", "sweep": {...}, "engine": "delta",
    "variants": [0, 5, 9]}`` -- rebuild the variant sweep (parent
    netlist, characterization, :class:`repro.timing.delta.DeltaBase`)
    from the :class:`repro.experiments.sweep.SweepSpec` dict and
    evaluate the listed variant indices.  Result:
    ``{"records": [[index, record_dict], ...]}`` (engine-independent
    :func:`~repro.experiments.sweep._result_record` payloads).

``ping``
    Liveness probe.  Result: ``{"pong": true}``.
"""

from __future__ import annotations

import json
import time
from typing import Dict

from ..errors import ConfigError

#: Job kinds :func:`run_job` dispatches on.
JOB_KINDS = (
    "fault_sites", "mc_shard", "experiment", "variant_shard", "ping"
)

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


def _context_for(scale: float, characterize_patterns: int):
    from ..experiments.context import ExperimentContext

    spec = {
        "scale": float(scale),
        "characterize_patterns": int(characterize_patterns),
    }
    key = _cache_key("context", spec)
    if key not in _STATE_CACHE:
        _STATE_CACHE[key] = ExperimentContext(
            scale=float(scale),
            characterize_patterns=int(characterize_patterns),
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
        report, _ = campaign.run_site(
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
    return run_mc_shard(job, (int(die_range[0]), int(die_range[1])))


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


def _run_experiment(request: Dict) -> Dict:
    from ..experiments.registry import get_experiment

    name = request.get("name")
    if not isinstance(name, str):
        raise ConfigError(
            "experiment job needs a 'name' string, got %r" % (name,)
        )
    spec = get_experiment(name)
    context = _context_for(
        request.get("scale", 1.0),
        request.get("characterize_patterns", 2000),
    )
    start = time.perf_counter()
    result = spec.run(context)
    return {
        "title": spec.title,
        "rendered": result.render(),
        "elapsed": time.perf_counter() - start,
    }


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
    if kind == "variant_shard":
        return _run_variant_shard(request)
    import difflib

    hints = difflib.get_close_matches(str(kind), JOB_KINDS, n=1)
    hint = " (did you mean %r?)" % hints[0] if hints else ""
    raise ConfigError(
        "unknown job kind %r%s; known kinds: %s"
        % (kind, hint, ", ".join(JOB_KINDS))
    )
