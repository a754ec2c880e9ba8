"""Variant sweeps: many near-identical netlist mutants, one base.

The aging-aware design loop (and the ROADMAP's design-space
exploration item) evaluates families of mutants of one parent design:
gate swaps (``AND2 -> OR2`` style approximations), column / partial
product truncations (tie a cell to a constant rail) and per-cell delay
nudges (sizing / Vth tweaks).  A :class:`VariantSweep` evaluates such a
family through :mod:`repro.timing.delta`:

* the parent is simulated **once** into a :class:`~repro.timing.delta
  .DeltaBase` (value plane with captured values + dense arrival
  tensor at the aging corners);
* every mutant is priced by :func:`~repro.timing.delta.replay_delta`,
  re-simulating only the affected cone -- bit-identical to the
  from-scratch :func:`~repro.timing.delta.evaluate_full` path, which
  stays available as ``engine="full"`` (the CI oracle and the benchmark
  baseline);
* per-variant records carry **only engine-independent fields** (site
  id, sha256 digests of outputs and delays, per-corner delay
  summaries), so a ``--engine delta`` sweep JSON is byte-identical to a
  ``--engine full`` one -- ``cmp`` in CI proves the contract end to
  end;
* records are cached in the :class:`~repro.experiments.store
  .ArtifactStore` under the ``delta`` kind, and sweeps shard over
  :mod:`repro.distrib` pools via the ``variant_shard`` job (workers
  rebuild the base deterministically from the spec and evaluate index
  ranges).

Variant enumeration is deterministic: mutants are drawn without
replacement from per-family pools (retype / tie / delay, round-robin)
by a seeded generator, so every worker, engine and re-run sees the same
family in the same order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_TECHNOLOGY, Technology
from ..errors import ConfigError
from ..faults.injector import fault_delay_scales
from ..faults.models import DelayFault
from ..nets.mutate import Mutation, apply_mutations, tie_high, tie_low
from ..nets.netlist import Netlist
from ..timing.delta import (
    DeltaBase,
    DeltaResult,
    evaluate_full,
    replay_delta,
)
from ..timing.value_cache import netlist_fingerprint
from .context import ExperimentContext
from .store import ArtifactStore, technology_fingerprint

#: Sweep payload format tag / schema version.
FORMAT = "repro-variant-sweep"
VERSION = 1

#: Involutive gate approximation swaps (same arity, same pins).
RETYPE_SWAPS = {
    "AND2": "OR2",
    "OR2": "AND2",
    "NAND2": "NOR2",
    "NOR2": "NAND2",
    "XOR2": "XNOR2",
    "XNOR2": "XOR2",
    "AND3": "OR3",
    "OR3": "AND3",
    "INV": "BUF",
    "BUF": "INV",
}

#: Engines :meth:`VariantSweep.run` accepts.
ENGINES = ("delta", "full")


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """JSON-round-trippable description of one variant sweep."""

    width: int = 16
    kind: str = "column"
    years: Tuple[float, ...] = (0.0, 10.0)
    num_patterns: int = 2000
    seed: int = 1
    characterize_patterns: int = 2000
    num_variants: int = 100
    variant_seed: int = 0
    #: Additive delay (ns) of the per-cell nudge family.
    delay_extra_ns: float = 0.4
    #: Arrival-cone fraction above which ``replay_delta`` falls back to
    #: a from-scratch evaluation (None: never fall back).
    max_cone_fraction: Optional[float] = None

    def to_dict(self) -> Dict:
        data = dataclasses.asdict(self)
        data["years"] = [float(year) for year in self.years]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                "unknown sweep spec fields: %s" % sorted(unknown)
            )
        data = dict(data)
        if "years" in data:
            data["years"] = tuple(float(y) for y in data["years"])
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class Variant:
    """One mutant: structural mutations and/or delay nudges."""

    site: str
    mutations: Tuple[Mutation, ...] = ()
    delay_faults: Tuple[DelayFault, ...] = ()


def enumerate_variants(
    netlist: Netlist, spec: SweepSpec
) -> List[Variant]:
    """The sweep's deterministic mutant family.

    Variants are drawn round-robin from three pools -- gate retypes
    (:data:`RETYPE_SWAPS`), constant ties (alternating low/high) and
    per-cell delay nudges -- each a seeded permutation consumed without
    replacement, so indices, sites and order are identical across
    processes and engines.  Grouped (bypass) cells are never mutated
    structurally; delay nudges may land anywhere, like delay faults.
    """
    rng = np.random.default_rng(spec.variant_seed)
    retypable = [
        cell.index
        for cell in netlist.cells
        if cell.group is None and cell.cell_type.name in RETYPE_SWAPS
    ]
    tieable = [
        cell.index for cell in netlist.cells if cell.group is None
    ]
    nudgeable = [cell.index for cell in netlist.cells]
    pools = [
        [int(i) for i in rng.permutation(pool)] if pool else []
        for pool in (retypable, nudgeable, tieable)
    ]
    capacity = sum(len(pool) for pool in pools)
    if spec.num_variants > capacity:
        raise ConfigError(
            "sweep asks for %d variants but the %d-cell netlist only"
            " offers %d distinct sites"
            % (spec.num_variants, len(netlist.cells), capacity)
        )
    variants: List[Variant] = []
    cursor = [0, 0, 0]
    family = 0
    while len(variants) < spec.num_variants:
        if cursor[family] >= len(pools[family]):
            family = (family + 1) % 3
            continue
        index = pools[family][cursor[family]]
        cursor[family] += 1
        if family == 0:
            mutation = Mutation(
                index, RETYPE_SWAPS[netlist.cells[index].cell_type.name]
            )
            variants.append(
                Variant(mutation.site_id(), mutations=(mutation,))
            )
        elif family == 1:
            fault = DelayFault(index, spec.delay_extra_ns)
            variants.append(
                Variant(fault.site_id(), delay_faults=(fault,))
            )
        else:
            tie = tie_low(index) if len(variants) % 2 else tie_high(index)
            variants.append(Variant(tie.site_id(), mutations=(tie,)))
        family = (family + 1) % 3
    return variants


def _result_record(site: str, result: DeltaResult) -> Dict:
    """The engine-independent record of one variant evaluation.

    Only bit-stable fields appear (digests of the byte-identity surface
    plus float summaries derived from it), so serialized records from
    the delta and full engines compare byte-equal.
    """
    digest = hashlib.sha256()
    for name in sorted(result.outputs):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(result.outputs[name]).tobytes())
    outputs_sha = digest.hexdigest()
    delays_sha = hashlib.sha256(
        np.ascontiguousarray(result.delays).tobytes()
    ).hexdigest()
    return {
        "site": site,
        "outputs_sha256": outputs_sha,
        "delays_sha256": delays_sha,
        "max_delay_ns": [float(x) for x in result.max_delays()],
        "mean_delay_ns": [float(x) for x in result.mean_delays()],
    }


def sweep_payload(spec: SweepSpec, records: List[Dict]) -> Dict:
    """The canonical sweep result document (engine-independent)."""
    return {
        "format": FORMAT,
        "version": VERSION,
        "spec": spec.to_dict(),
        "records": records,
    }


def render_payload(payload: Dict) -> str:
    """Canonical JSON text -- byte-identical across engines and hosts
    for byte-identical records."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class VariantSweep:
    """Evaluate a deterministic mutant family against one parent base.

    Args:
        spec: The sweep description.
        technology: Technology constants (the context default).
        store: Optional :class:`ArtifactStore`; per-variant records are
            cached under the ``delta`` kind and netlist / stress /
            plane artifacts flow through the usual store paths.
        context: Optional pre-built :class:`ExperimentContext` to share
            caches with other experiments (overrides ``technology`` /
            ``store``).
    """

    def __init__(
        self,
        spec: SweepSpec,
        technology: Technology = DEFAULT_TECHNOLOGY,
        store: Optional[ArtifactStore] = None,
        context: Optional[ExperimentContext] = None,
    ):
        self.spec = spec
        if context is None:
            context = ExperimentContext(
                technology=technology,
                characterize_patterns=spec.characterize_patterns,
                store=store,
            )
        self.context = context
        self.store = context.store
        self._netlist: Optional[Netlist] = None
        self._variants: Optional[List[Variant]] = None
        self._scales: Optional[np.ndarray] = None
        self._base: Optional[DeltaBase] = None

    # -- lazily shared parent state ------------------------------------

    @property
    def netlist(self) -> Netlist:
        if self._netlist is None:
            self._netlist = self.context.netlist(
                self.spec.width, self.spec.kind
            )
        return self._netlist

    @property
    def variants(self) -> List[Variant]:
        if self._variants is None:
            self._variants = enumerate_variants(self.netlist, self.spec)
        return self._variants

    @property
    def scales(self) -> np.ndarray:
        """Base ``(k, num_cells)`` aging scale matrix (one row per
        requested lifetime point)."""
        if self._scales is None:
            factory = self.context.factory(
                self.spec.width, self.spec.kind
            )
            self._scales = factory.lifetime_delay_scales(
                list(self.spec.years)
            )
        return self._scales

    @property
    def stimulus(self) -> Dict[str, np.ndarray]:
        md, mr = self.context.stream(
            self.spec.width, self.spec.num_patterns, self.spec.seed
        )
        return {"md": md, "mr": mr}

    def base(self) -> DeltaBase:
        """The parent :class:`DeltaBase` (built once, then reused by
        every delta evaluation)."""
        if self._base is None:
            factory = self.context.factory(
                self.spec.width, self.spec.kind
            )
            self._base = DeltaBase(
                factory.circuit(0.0), self.stimulus, self.scales
            )
        return self._base

    # -- per-variant evaluation ----------------------------------------

    def _variant_scales(self, variant: Variant) -> np.ndarray:
        if not variant.delay_faults:
            return self.scales
        return fault_delay_scales(
            self.netlist,
            variant.delay_faults,
            self.scales,
            self.context.technology,
        )

    def evaluate(self, index: int, engine: str = "delta") -> Tuple[Dict, str]:
        """Evaluate one variant; returns ``(record, method)``."""
        if engine not in ENGINES:
            raise ConfigError(
                "engine must be one of %s, got %r" % (ENGINES, engine)
            )
        variant = self.variants[index]
        child = (
            apply_mutations(self.netlist, variant.mutations)
            if variant.mutations
            else self.netlist
        )
        scales = self._variant_scales(variant)
        if engine == "delta":
            result = replay_delta(
                self.base(),
                child,
                delay_scales=scales,
                max_cone_fraction=self.spec.max_cone_fraction,
            )
        else:
            result = evaluate_full(
                child,
                self.stimulus,
                scales,
                technology=self.context.technology,
            )
        return _result_record(variant.site, result), result.method

    def _record_key(self, variant: Variant) -> Dict:
        """Store key of one variant record -- parent lineage x stimulus
        x corners x site.  The engine is deliberately absent:
        the record is part of the byte-identity surface."""
        return {
            "parent": netlist_fingerprint(self.netlist),
            "technology": technology_fingerprint(
                self.context.technology
            ),
            "characterize": [
                self.spec.characterize_patterns,
                self.spec.width,
                self.spec.kind,
            ],
            "years": [float(y) for y in self.spec.years],
            "stream": [self.spec.num_patterns, self.spec.seed],
            "delay_extra_ns": self.spec.delay_extra_ns,
            "site": variant.site,
        }

    def run(
        self,
        engine: str = "delta",
        pool=None,
        chunk_size: Optional[int] = None,
    ) -> Tuple[Dict, Dict]:
        """Evaluate every variant; returns ``(payload, stats)``.

        ``payload`` is the canonical engine-independent document (see
        :func:`sweep_payload`); ``stats`` carries engine, wall time and
        per-method counts for operator output only.
        """
        if engine not in ENGINES:
            raise ConfigError(
                "engine must be one of %s, got %r" % (ENGINES, engine)
            )
        start = time.perf_counter()
        records: List[Optional[Dict]] = [None] * len(self.variants)
        methods: Dict[str, int] = {}
        store_hits = 0
        pending: List[int] = []
        if self.store is not None:
            for index, variant in enumerate(self.variants):
                cached = self.store.load(
                    "delta", self._record_key(variant)
                )
                if cached is not None:
                    records[index] = cached
                    store_hits += 1
                else:
                    pending.append(index)
        else:
            pending = list(range(len(self.variants)))

        if pending and pool is not None:
            from ..distrib.pool import run_sweep_pooled

            for index, record in run_sweep_pooled(
                pool,
                self.spec.to_dict(),
                pending,
                engine=engine,
                chunk_size=chunk_size,
            ):
                records[index] = record
                methods["pooled"] = methods.get("pooled", 0) + 1
        else:
            for index in pending:
                record, method = self.evaluate(index, engine=engine)
                records[index] = record
                methods[method] = methods.get(method, 0) + 1
        if self.store is not None:
            for index in pending:
                self.store.save(
                    "delta",
                    self._record_key(self.variants[index]),
                    records[index],
                )
        stats = {
            "engine": engine,
            "num_variants": len(self.variants),
            "elapsed_s": time.perf_counter() - start,
            "methods": methods,
            "store_hits": store_hits,
        }
        return sweep_payload(self.spec, records), stats
