"""Persistent, fingerprint-keyed experiment artifact store.

Reproducing the paper means running ~30 experiments, and every fresh
process used to pay netlist construction, ``AgedCircuitFactory
.characterize`` and the circuit stream simulations again from zero.
The :class:`ArtifactStore` persists those artifact classes on
disk so they are computed once -- across experiments, across worker
processes of a parallel suite run (:mod:`repro.experiments.scheduler`),
and across invocations:

* ``netlist`` -- generated :class:`~repro.nets.netlist.Netlist` objects,
  keyed by their builder arguments (pickled; the netlist is this
  library's own internal format);
* ``stress``  -- characterized :class:`~repro.aging.stress
  .StressProfile` s (the expensive ``characterize`` output), keyed by
  the netlist's structural hash x technology x characterization
  workload;
* ``stream``  -- :class:`~repro.timing.engine.StreamResult` payloads,
  one per priced delay-scale row, keyed by :func:`~repro.timing
  .value_cache.stream_keys`: netlist hash x technology x circuit mode x
  stimulus digest x the row's bytes, written only by
  :meth:`~repro.timing.value_cache.ValuePlaneCache.price` and the fault
  campaign's pristine baseline; a stream holds no switched capacitance;
* ``power`` -- the per-pattern switched capacitance of a stimulus (the
  power pass, :func:`~repro.timing.replay.build_switched_caps`), keyed
  by :func:`~repro.timing.value_cache.power_key`: netlist hash x
  technology x stimulus digest, shared by every delay-scale row;
* ``activity`` -- per-net toggle counts of a stimulus
  (:meth:`~repro.timing.engine.CompiledCircuit.toggle_counts`, the
  electromigration input), keyed by netlist hash x technology x
  characterization x stimulus: toggles do not depend on delay;
* ``plane`` -- :class:`~repro.timing.replay.ValuePlane` s persisted by
  a store-backed :class:`~repro.timing.value_cache.ValuePlaneCache`,
  keyed ``{"plane": plane_cache_key(...)}``;
* ``site`` -- one fault-campaign :class:`~repro.faults.campaign
  .SiteReport` (its ``to_dict()``), keyed ``{"campaign":
  InjectionCampaign.fingerprint(), "site": site_id}``, so a campaign
  resumes from the sites the store holds and another campaign's
  reports never match.

The store is a plain directory of content-addressed files,
``<kind>-<digest>.<ext>``, and nothing else: no index or manifest, no
locks.  Every entry is a single file written atomically (a per-call
temp file + ``os.replace``, see :func:`repro.util.atomic.write_atomic`)
with its full key embedded; on read the embedded key must match the
requested key exactly, so a stale, corrupt or truncated file is ignored
and rebuilt, never trusted.  Files a reader does not ask for (another
release's index or lock files, say) are never opened.

Concurrent writers are safe by construction: two processes building the
same artifact each write their own temp file and race to ``os.replace``
the same content-addressed path, and either result is valid for every
reader.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
from typing import Dict

import numpy as np

from ..config import SimulationConfig
from ..errors import ConfigError
from ..nets.netlist import Netlist
from ..timing.engine import StreamResult
from ..timing.replay import ValuePlane
from ..util.atomic import write_atomic
from ..util.retry import Backoff, retry_call

#: Format tag embedded in every artifact.
FORMAT = "repro-artifact"
#: Current artifact schema version; bump to invalidate every store.
VERSION = 1
#: Artifact kinds the store accepts.  ``population`` holds the compact
#: per-(die, year) reductions of a priced Monte Carlo population
#: (:class:`repro.montecarlo.population.PopulationReductions` payload,
#: fingerprint-keyed on the sampler config); ``surface`` holds the
#: derived analytics dict (:class:`repro.montecarlo.analytics
#: .MonteCarloResult`); ``delta`` holds per-variant sweep records
#: (:mod:`repro.experiments.sweep` evaluation dicts, fingerprint-keyed
#: on the parent base x mutation site), so re-running a variant sweep
#: only evaluates mutants the store has not seen; ``site`` holds
#: fault-campaign site reports the same way.
KINDS = (
    "netlist",
    "stress",
    "stream",
    "power",
    "activity",
    "population",
    "surface",
    "delta",
    "plane",
    "site",
)

#: Pickled kinds and the payload type each must have.
_PICKLED = {"netlist": Netlist, "surface": dict, "delta": dict, "site": dict}


def _canonical(key: Dict) -> str:
    """Canonical JSON of a key dict (one JSON round-trip semantics)."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def artifact_digest(kind: str, key: Dict) -> str:
    """sha256 fingerprint of ``(format, version, kind, key)``."""
    if kind not in KINDS:
        raise ConfigError(
            "unknown artifact kind %r (known: %s)" % (kind, KINDS)
        )
    h = hashlib.sha256()
    h.update(
        _canonical(
            {
                "format": FORMAT,
                "version": VERSION,
                "kind": kind,
                "key": key,
            }
        ).encode()
    )
    return h.hexdigest()


def config_fingerprint(config: SimulationConfig) -> str:
    """Stable sha256 of the architecture-simulation configuration."""
    h = hashlib.sha256()
    h.update(_canonical(dataclasses.asdict(config)).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Per-kind (de)serialization
# ----------------------------------------------------------------------


def _save_pickle(path: str, key: Dict, payload) -> None:
    record = {
        "format": FORMAT,
        "version": VERSION,
        "key": _canonical(key),
        "payload": payload,
    }
    write_atomic(
        path,
        lambda fp: pickle.dump(record, fp, protocol=pickle.HIGHEST_PROTOCOL),
    )


def _load_pickle(path: str, key: Dict):
    with open(path, "rb") as fp:
        record = pickle.load(fp)
    if (
        not isinstance(record, dict)
        or record.get("format") != FORMAT
        or record.get("version") != VERSION
        or record.get("key") != _canonical(key)
    ):
        return None
    return record["payload"]


def _save_npz(path: str, key: Dict, meta: Dict, arrays: Dict) -> None:
    meta = dict(meta)
    meta.update(
        {"format": FORMAT, "version": VERSION, "key": _canonical(key)}
    )
    payload = {
        "meta": np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        ).copy()
    }
    payload.update(arrays)
    write_atomic(path, lambda fp: np.savez(fp, **payload))


def _load_npz(path: str, key: Dict):
    """Returns ``(meta, arrays)`` or None on any mismatch/corruption."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if (
            meta.get("format") != FORMAT
            or meta.get("version") != VERSION
            or meta.get("key") != _canonical(key)
        ):
            return None
        arrays = {name: data[name] for name in data.files if name != "meta"}
    return meta, arrays


# Each npz kind encodes its payload to ``(meta, arrays)`` and decodes
# ``(meta, arrays, key)`` back to the payload.


def _encode_stress(stress):
    return (
        {"netlist_name": stress.netlist_name},
        {
            "pmos_stress": stress.pmos_stress,
            "nmos_stress": stress.nmos_stress,
        },
    )


def _decode_stress(meta: Dict, arrays: Dict, key: Dict):
    from ..aging.stress import StressProfile

    return StressProfile(
        netlist_name=meta["netlist_name"],
        pmos_stress=arrays["pmos_stress"],
        nmos_stress=arrays["nmos_stress"],
    )


def _encode_stream(result: StreamResult):
    meta = {
        "num_patterns": result.num_patterns,
        "outputs": sorted(result.outputs),
        "bit_arrivals": sorted(result.bit_arrivals or {}),
    }
    arrays = {"delays": result.delays}
    for name, arr in result.outputs.items():
        arrays["out__" + name] = arr
    for name, arr in (result.bit_arrivals or {}).items():
        arrays["arr__" + name] = arr
    return meta, arrays


def _decode_stream(meta: Dict, arrays: Dict, key: Dict) -> StreamResult:
    bit_arrivals = {
        name: arrays["arr__" + name] for name in meta["bit_arrivals"]
    }
    return StreamResult(
        outputs={
            name: arrays["out__" + name] for name in meta["outputs"]
        },
        delays=arrays["delays"],
        num_patterns=int(meta["num_patterns"]),
        bit_arrivals=bit_arrivals or None,
    )


def _encode_power(switched_caps):
    return {}, {"switched_caps": np.asarray(switched_caps)}


def _decode_power(meta: Dict, arrays: Dict, key: Dict):
    return arrays["switched_caps"]


def _encode_activity(counts):
    return {}, {"toggle_counts": np.asarray(counts)}


def _decode_activity(meta: Dict, arrays: Dict, key: Dict):
    return arrays["toggle_counts"]


def _encode_population(payload):
    """A Monte Carlo population's ``{"meta", "arrays"}`` payload (see
    :class:`repro.montecarlo.population.PopulationReductions`)."""
    if (
        not isinstance(payload, dict)
        or "meta" not in payload
        or "arrays" not in payload
    ):
        raise ConfigError(
            'population artifact must be a {"meta", "arrays"} dict'
        )
    return (
        {"population": payload["meta"]},
        {
            "pop__" + name: np.asarray(arr)
            for name, arr in payload["arrays"].items()
        },
    )


def _decode_population(meta: Dict, arrays: Dict, key: Dict) -> Dict:
    return {
        "meta": meta["population"],
        "arrays": {
            name[len("pop__"):]: arr
            for name, arr in arrays.items()
            if name.startswith("pop__")
        },
    }


def _encode_plane(plane: ValuePlane):
    meta = {
        "num_patterns": plane.num_patterns,
        "num_nets": plane.num_nets,
        "num_cells": plane.num_cells,
        "mode": plane.mode,
        "outputs": sorted(plane.outputs),
    }
    arrays = {
        "may_packed": plane.may_packed,
        "aux_packed": plane.aux_packed,
        "aux_offsets": plane.aux_offsets,
    }
    for name, arr in plane.outputs.items():
        arrays["out__" + name] = arr
    return meta, arrays


def _decode_plane(meta: Dict, arrays: Dict, key: Dict) -> ValuePlane:
    return ValuePlane(
        num_patterns=int(meta["num_patterns"]),
        num_nets=int(meta["num_nets"]),
        num_cells=int(meta["num_cells"]),
        mode=meta["mode"],
        may_packed=arrays["may_packed"],
        aux_packed=arrays["aux_packed"],
        aux_offsets=arrays["aux_offsets"],
        outputs={
            name: arrays["out__" + name] for name in meta["outputs"]
        },
        key=key["plane"],
    )


_NPZ_CODECS = {
    "stress": (_encode_stress, _decode_stress),
    "stream": (_encode_stream, _decode_stream),
    "power": (_encode_power, _decode_power),
    "activity": (_encode_activity, _decode_activity),
    "population": (_encode_population, _decode_population),
    "plane": (_encode_plane, _decode_plane),
}


# ----------------------------------------------------------------------


class ArtifactStore:
    """On-disk artifact cache shared by contexts, workers and runs.

    Args:
        directory: Store root (created on first write).

    Attributes:
        counters: ``kind -> {"hits": n, "misses": n, "writes": n}``,
            cumulative for this process (a parallel suite run merges the
            workers' counters into the parent's accounting).
        corruption: Robustness accounting -- ``{"artifacts": n}``, the
            torn or foreign artifact files met.  Torn or corrupt state
            is always degraded to a cache miss and rebuilt; this
            counter is how the degradation stays observable instead of
            silent.
    """

    def __init__(self, directory: str):
        if not directory:
            raise ConfigError("artifact store needs a directory")
        self.directory = str(directory)
        self.counters: Dict[str, Dict[str, int]] = {
            kind: {"hits": 0, "misses": 0, "writes": 0} for kind in KINDS
        }
        self.corruption: Dict[str, int] = {"artifacts": 0}

    # -- paths ----------------------------------------------------------

    def _path(self, kind: str, key: Dict) -> str:
        digest = artifact_digest(kind, key)
        ext = ".pkl" if kind in _PICKLED else ".npz"
        return os.path.join(
            self.directory, "%s-%s%s" % (kind, digest[:32], ext)
        )

    # -- generic load/save ---------------------------------------------

    def load(self, kind: str, key: Dict):
        """The stored artifact for ``key``, or None (miss counts).

        A file that exists but fails validation (torn write, foreign
        bytes, stale embedded key) degrades to a miss *and* increments
        ``corruption["artifacts"]`` -- corruption is never an exception
        here, only an observable rebuild.
        """
        path = self._path(kind, key)
        if os.path.exists(path):
            try:
                if kind in _PICKLED:
                    payload = _load_pickle(path, key)
                else:
                    loaded = _load_npz(path, key)
                    payload = (
                        None
                        if loaded is None
                        else _NPZ_CODECS[kind][1](*loaded, key)
                    )
            except Exception:
                payload = None  # corrupt/foreign file: treat as miss
            if payload is not None:
                self.counters[kind]["hits"] += 1
                return payload
            self.corruption["artifacts"] += 1
        self.counters[kind]["misses"] += 1
        return None

    def contains(self, kind: str, key: Dict) -> bool:
        """Whether a file for ``key`` exists (nothing is loaded or
        counted; a corrupt file still reads as a miss on load)."""
        return os.path.exists(self._path(kind, key))

    def save(self, kind: str, key: Dict, payload) -> None:
        """Atomically persist one artifact as one file."""
        path = self._path(kind, key)
        if kind in _PICKLED:
            if not isinstance(payload, _PICKLED[kind]):
                raise ConfigError(
                    "%s artifact must be a %s"
                    % (kind, _PICKLED[kind].__name__)
                )
            os.makedirs(self.directory, exist_ok=True)
            _save_pickle(path, key, payload)
        else:
            meta, arrays = _NPZ_CODECS[kind][0](payload)
            os.makedirs(self.directory, exist_ok=True)
            _save_npz(path, key, meta, arrays)
        self.counters[kind]["writes"] += 1

    def get_or_build(self, kind: str, key: Dict, build):
        """Load ``key`` or build-and-persist it (built at most once per
        store; concurrent builders race benignly on the atomic rename)."""
        payload = self.load(kind, key)
        if payload is None:
            payload = build()
            self.save(kind, key, payload)
        return payload

    # -- maintenance ----------------------------------------------------

    def clear(self) -> None:
        """Delete the whole store directory (cold start).

        Safe to call while other processes write: deletion races
        (a writer re-creating files mid-``rmtree``) are retried with
        bounded backoff instead of surfacing ``OSError``.  Anything a
        concurrent writer creates *after* the final sweep survives --
        clear removes the state present when it ran, it does not fence
        future writers.
        """

        def _sweep() -> None:
            if os.path.isdir(self.directory):
                shutil.rmtree(self.directory)

        retry_call(
            _sweep,
            retry_on=(OSError,),
            backoff=Backoff(
                initial_s=0.01, max_delay_s=0.2, max_elapsed_s=5.0
            ),
            description="clearing store %s" % self.directory,
        )
        for kind in self.counters:
            self.counters[kind] = {"hits": 0, "misses": 0, "writes": 0}
        for name in self.corruption:
            self.corruption[name] = 0

    def merge_counters(self, counters: Dict[str, Dict[str, int]]) -> None:
        """Fold another process's counter snapshot into this one."""
        for kind, stats in counters.items():
            mine = self.counters.setdefault(
                kind, {"hits": 0, "misses": 0, "writes": 0}
            )
            for name, value in stats.items():
                mine[name] = mine.get(name, 0) + int(value)

    def counter_totals(self) -> Dict[str, int]:
        """Summed ``{"hits": n, "misses": n, "writes": n}`` over kinds."""
        totals = {"hits": 0, "misses": 0, "writes": 0}
        for stats in self.counters.values():
            for name in totals:
                totals[name] += stats.get(name, 0)
        return totals

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A deep copy of :attr:`counters` (for before/after deltas)."""
        return {kind: dict(stats) for kind, stats in self.counters.items()}


def counter_delta(
    before: Dict[str, Dict[str, int]],
    after: Dict[str, Dict[str, int]],
) -> Dict[str, Dict[str, int]]:
    """Per-kind counter difference ``after - before``."""
    delta: Dict[str, Dict[str, int]] = {}
    for kind, stats in after.items():
        base = before.get(kind, {})
        diff = {
            name: value - base.get(name, 0)
            for name, value in stats.items()
        }
        if any(diff.values()):
            delta[kind] = diff
    return delta


def delta_totals(delta: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    """Summed hits/misses/writes over a :func:`counter_delta`."""
    totals = {"hits": 0, "misses": 0, "writes": 0}
    for stats in delta.values():
        for name in totals:
            totals[name] += stats.get(name, 0)
    return totals
