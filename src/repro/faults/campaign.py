"""Fault-injection campaigns over the aging-aware architecture.

An :class:`InjectionCampaign` sweeps a list of single-fault sites over
one :class:`~repro.core.architecture.AgingAwareMultiplier`: for every
site it compiles the faulty circuit, streams the same operands through
it, feeds the faulty per-pattern delays and products through the healthy
Razor/AHL control loop, and classifies every corrupted pattern as
*detected* (Razor flagged it) or *silent* (the corruption arrived early
enough to latch cleanly -- the coverage hole value faults exploit).

The campaign never aborts mid-sweep: site runs execute under the
architecture's configured recovery policy (``degrade`` by default), so
even sites that push arrivals past the shadow window complete and are
reported.  A campaign with zero faults is bit-identical to the pristine
baseline run -- property-tested, and the sanity anchor for every
coverage number produced here.

Campaign execution (this layer's production contract):

* **Stable site ids** -- every fault has a canonical
  :meth:`~repro.faults.models.FaultModel.site_id` derived purely from
  its parameters, so a site means the same thing across processes and
  interpreter runs (duplicates are suffixed ``#k`` in campaign order).
* **Checkpointing** -- ``run(checkpoint=path)`` persists each
  :class:`SiteReport` to a JSONL :class:`~repro.faults.store
  .CheckpointStore` as it completes; ``resume=True`` (the default)
  skips sites already recorded for the same campaign fingerprint.
* **Sharding** -- ``run(workers=N)`` fans the pending sites out over a
  :class:`concurrent.futures.ProcessPoolExecutor`
  (:mod:`repro.faults.parallel`).  All randomness (operand streams,
  SEU flips) is either drawn up-front in the parent or a stateless
  counter hash, so the sharded sweep is bit-identical to the serial
  one regardless of worker count or chunk boundaries.
* **Graceful interruption** -- a SIGINT / :class:`KeyboardInterrupt`
  mid-sweep flushes the checkpoint and raises
  :class:`~repro.errors.CampaignInterrupted` carrying the partial
  :class:`CampaignResult`, so partial coverage is still reportable and
  the next ``run`` resumes where the sweep stopped.
* **Logic-cone pruning** -- ``prune=True`` (default) skips simulating
  sites whose forward cone cannot reach any observed product bit
  (:meth:`~repro.timing.engine.CompiledCircuit.output_reach_mask`);
  such sites provably reproduce the baseline run, so their reports are
  synthesized exactly (property-tested) at zero simulation cost.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..aging.electromigration import cell_toggle_rates
from ..arith.reference import golden_products
from ..core.architecture import AgingAwareMultiplier
from ..core.stats import ArchitectureRunResult
from ..errors import CampaignInterrupted, FaultError
from .injector import (
    compile_with_faults,
    em_fault_sites,
    enumerate_fault_sites,
)
from .models import FaultModel

#: Progress callback: ``(site_report, completed, total)``, invoked after
#: every finished site (resumed and pruned sites included).
ProgressFn = Callable[["SiteReport", int, int], None]


@dataclasses.dataclass(frozen=True)
class SiteReport:
    """Detection/recovery statistics of one fault site.

    Attributes:
        label: Human-readable site description.
        kind: Fault class tag (``stuck-at-0``, ``transient``, ...).
        corrupted_ops: Patterns whose product differed from golden.
        detected_ops: Corrupted patterns the Razor bank flagged.
        silent_ops: Corrupted patterns that latched without a flag.
        razor_errors: All Razor detections (corrupted or not -- a delay
            fault can be caught and fixed by re-execution).
        undetectable_ops: One-cycle patterns past the shadow window.
        recovered_ops: Over-budget patterns absorbed by the fallback.
        exhausted_ops: Patterns that hit the fallback cap.
        avg_latency_ns: Mean latency under the fault.
        indicator_aged_at: Operation index where the AHL switched to
            Skip-(n+1) under this fault (-1: never).
        site_id: Canonical fault site id (checkpoint key).
        pruned: True when the report was synthesized by logic-cone
            pruning instead of simulated (bit-exact either way).
    """

    label: str
    kind: str
    corrupted_ops: int
    detected_ops: int
    silent_ops: int
    razor_errors: int
    undetectable_ops: int
    recovered_ops: int
    exhausted_ops: int
    avg_latency_ns: float
    indicator_aged_at: int
    site_id: str = ""
    pruned: bool = False

    @property
    def detection_fraction(self) -> float:
        """Detected fraction of corrupted patterns (1.0 when nothing
        was corrupted -- a benign site has full coverage by default)."""
        if self.corrupted_ops == 0:
            return 1.0
        return self.detected_ops / self.corrupted_ops

    def summary(self) -> Dict[str, float]:
        return {
            "site_id": self.site_id,
            "kind": self.kind,
            "corrupted_ops": self.corrupted_ops,
            "detected_ops": self.detected_ops,
            "silent_ops": self.silent_ops,
            "detection_fraction": self.detection_fraction,
            "avg_latency_ns": self.avg_latency_ns,
        }

    def to_dict(self) -> Dict:
        """JSON-ready dict -- the checkpoint store's line payload."""
        data = dataclasses.asdict(self)
        data["detection_fraction"] = self.detection_fraction
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "SiteReport":
        """Inverse of :meth:`to_dict` (ignores derived/unknown keys)."""
        fields = {f.name for f in dataclasses.fields(cls)}
        try:
            return cls(**{k: v for k, v in data.items() if k in fields})
        except TypeError as exc:
            raise FaultError(
                "malformed site report payload: %s" % (exc,)
            ) from None


@dataclasses.dataclass
class CampaignResult:
    """Per-site reports plus the pristine baseline they compare against."""

    design: str
    num_patterns: int
    years: float
    baseline: ArchitectureRunResult
    sites: List[SiteReport]
    #: Sites whose report was synthesized by logic-cone pruning (their
    #: ``SiteReport.pruned`` flag is set, surviving checkpoint resume).
    pruned_sites: int = 0
    #: Sites restored from a checkpoint instead of re-simulated.
    resumed_sites: int = 0
    #: Sites actually simulated during this sweep (neither pruned nor
    #: restored from the checkpoint).
    simulated_sites: int = 0
    #: Sites the campaign was asked to run (== len(sites) unless the
    #: sweep was interrupted and this is a partial result).
    requested_sites: int = -1

    def __post_init__(self):
        if self.requested_sites < 0:
            self.requested_sites = len(self.sites)

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def complete(self) -> bool:
        """False for the partial result of an interrupted sweep."""
        return self.num_sites == self.requested_sites

    @property
    def corrupting_sites(self) -> int:
        """Sites whose fault corrupted at least one product."""
        return sum(1 for s in self.sites if s.corrupted_ops > 0)

    def detection_coverage(self, kind: Optional[str] = None) -> float:
        """Mean per-site detection fraction over corrupting sites."""
        picked = [
            s
            for s in self.sites
            if s.corrupted_ops > 0 and (kind is None or s.kind == kind)
        ]
        if not picked:
            return 1.0
        return float(
            np.mean([s.detection_fraction for s in picked])
        )

    def silent_corruption_rate(self) -> float:
        """Silent corrupted patterns per simulated pattern, over sites."""
        total = self.num_sites * self.num_patterns
        if total == 0:
            return 0.0
        return sum(s.silent_ops for s in self.sites) / total

    def by_kind(self) -> Dict[str, List[SiteReport]]:
        kinds: Dict[str, List[SiteReport]] = {}
        for site in self.sites:
            kinds.setdefault(site.kind, []).append(site)
        return kinds

    # -- uniform serialization protocol (analysis.serialize) -----------

    def summary(self) -> Dict:
        """Flat scalar summary -- what the benchmark JSON records."""
        return {
            "design": self.design,
            "num_patterns": self.num_patterns,
            "years": self.years,
            "policy": self.baseline.report.policy,
            "baseline_latency_ns": self.baseline.report.average_latency_ns,
            "sites_total": self.num_sites,
            "sites_requested": self.requested_sites,
            "sites_corrupting": self.corrupting_sites,
            "sites_pruned": self.pruned_sites,
            "sites_resumed": self.resumed_sites,
            "sites_simulated": self.simulated_sites,
            "complete": self.complete,
            "detection_coverage": self.detection_coverage(),
            "silent_corruption_rate": self.silent_corruption_rate(),
        }

    def to_dict(self) -> Dict:
        data = self.summary()
        data["baseline"] = self.baseline.to_dict()
        data["sites"] = [site.to_dict() for site in self.sites]
        return data

    def render(self) -> str:
        from ..analysis.tables import format_table

        rows = []
        for kind, sites in sorted(self.by_kind().items()):
            corrupting = [s for s in sites if s.corrupted_ops > 0]
            rows.append(
                [
                    kind,
                    len(sites),
                    len(corrupting),
                    self.detection_coverage(kind),
                    float(np.mean([s.avg_latency_ns for s in sites])),
                    sum(s.recovered_ops for s in sites),
                    sum(s.exhausted_ops for s in sites),
                ]
            )
        info = self.summary()
        header = (
            "%s: %d/%d sites x %d patterns (baseline %.4g ns/op, policy %s)"
            % (
                info["design"],
                info["sites_total"],
                info["sites_requested"],
                info["num_patterns"],
                info["baseline_latency_ns"],
                info["policy"],
            )
        )
        extras = "pruned %d, resumed %d, simulated %d%s" % (
            info["sites_pruned"],
            info["sites_resumed"],
            info["sites_simulated"],
            "" if info["complete"] else "  [PARTIAL -- interrupted]",
        )
        table = format_table(
            [
                "fault kind",
                "sites",
                "corrupting",
                "detection",
                "ns/op",
                "recovered",
                "exhausted",
            ],
            rows,
        )
        return header + "\n" + extras + "\n" + table


def campaign_from_spec(spec: Dict) -> "InjectionCampaign":
    """Rebuild a campaign from a small JSON-able spec dict.

    This is the distributed transport: remote workers and the
    ``faults merge`` subcommand reconstruct the exact campaign from the
    same handful of CLI-level parameters instead of shipping pickled
    state, relying on the campaign's determinism contract (operand
    streams and site enumeration are pure functions of the spec).
    """
    mult = AgingAwareMultiplier.build(
        int(spec.get("width", 8)),
        spec.get("kind", "column"),
        skip=spec.get("skip"),
        cycle_ns=None,
        characterize_patterns=int(spec.get("characterize_patterns", 600)),
    )
    mult = mult.with_cycle(
        float(spec.get("cycle_fraction", 0.6)) * mult.critical_path_ns()
    )
    return InjectionCampaign.sweep(
        mult,
        num_sites=int(spec.get("sites", 60)),
        num_patterns=int(spec.get("patterns", 2000)),
        seed=int(spec.get("seed", 7)),
        years=float(spec.get("years", 0.0)),
    )


def merge_campaign_shards(
    campaign: "InjectionCampaign", checkpoints: Sequence[str]
) -> CampaignResult:
    """Fuse per-shard checkpoint files into the full campaign result.

    Each shard ran ``campaign.run(site_range=..., checkpoint=...)`` on
    some host; every checkpoint carries the same campaign fingerprint
    (validated here), and together they must cover every site.  The
    merged result is byte-identical -- rendered text and sorted JSON --
    to a single-host ``campaign.run()``: the baseline is recomputed
    deterministically and the resumed/simulated accounting is reported
    as the serial run would (``resumed=0``,
    ``simulated = total - pruned``), since "which host simulated which
    site" is pure scheduling, not a property of the result.
    """
    from .store import CheckpointStore

    if not checkpoints:
        raise FaultError("no shard checkpoints to merge")
    fingerprint = campaign.fingerprint()
    restored: Dict[str, SiteReport] = {}
    for path in checkpoints:
        restored.update(CheckpointStore(path).load(fingerprint))
    missing = [
        site_id
        for site_id in campaign.site_ids
        if site_id not in restored
    ]
    if missing:
        raise FaultError(
            "shard merge incomplete: %d/%d sites missing (first: %s);"
            " run the missing shards, then merge again"
            % (len(missing), len(campaign.faults), missing[0])
        )
    sites = [restored[site_id] for site_id in campaign.site_ids]
    pruned = sum(1 for report in sites if report.pruned)
    return CampaignResult(
        design=campaign.architecture.name,
        num_patterns=campaign.num_patterns,
        years=campaign.years,
        baseline=campaign.run_pristine(),
        sites=sites,
        pruned_sites=pruned,
        resumed_sites=0,
        simulated_sites=len(sites) - pruned,
        requested_sites=len(sites),
    )


def unique_site_ids(faults: Sequence[FaultModel]) -> List[str]:
    """Canonical site ids in campaign order, de-duplicated with ``#k``.

    Ids come from :meth:`FaultModel.site_id` -- pure functions of the
    fault parameters -- so the mapping is stable across processes; a
    fault listed twice gets ``...#1``, ``...#2`` suffixes, keeping ids
    unique within one campaign while staying deterministic.
    """
    counts: Dict[str, int] = {}
    ids: List[str] = []
    for fault in faults:
        base = fault.site_id()
        seen = counts.get(base, 0)
        counts[base] = seen + 1
        ids.append(base if seen == 0 else "%s#%d" % (base, seen))
    return ids


class InjectionCampaign:
    """Sweep fault sites through one architecture on a fixed workload.

    Args:
        architecture: The design under test (its configured recovery
            policy governs the site runs; the default ``degrade`` never
            aborts a sweep).
        faults: Fault sites to inject, one at a time.  May be empty --
            the campaign then reduces to the pristine baseline.
        num_patterns: Operand pairs per site.
        seed: Operand-stream seed.
        years: BTI aging point every site is simulated at.
    """

    def __init__(
        self,
        architecture: AgingAwareMultiplier,
        faults: Sequence[FaultModel],
        num_patterns: int = 2000,
        seed: int = 1,
        years: float = 0.0,
    ):
        if num_patterns < 1:
            raise FaultError("num_patterns must be >= 1")
        for fault in faults:
            if not isinstance(fault, FaultModel):
                raise FaultError("not a fault model: %r" % (fault,))
            fault.validate(architecture.netlist)
        self.architecture = architecture
        self.faults = list(faults)
        self.site_ids = unique_site_ids(self.faults)
        self.num_patterns = num_patterns
        self.seed = seed
        self.years = years
        rng = np.random.default_rng(seed)
        high = 1 << architecture.width
        self.md = rng.integers(0, high, num_patterns, dtype=np.uint64)
        self.mr = rng.integers(0, high, num_patterns, dtype=np.uint64)
        self._golden = golden_products(
            self.md, self.mr, architecture.width
        )
        self._base_scale = (
            architecture.factory.delay_scale(years) if years else None
        )
        self._pristine = None

    @classmethod
    def sweep(
        cls,
        architecture: AgingAwareMultiplier,
        num_sites: int,
        num_patterns: int = 2000,
        seed: int = 1,
        years: float = 0.0,
        kinds: Sequence[str] = ("sa0", "sa1", "transient", "delay"),
        transient_rate: Optional[float] = None,
        delay_extra_ns: Optional[float] = None,
        sites: str = "uniform",
        em_model=None,
        em_years: float = 10.0,
    ) -> "InjectionCampaign":
        """Campaign over an automatically enumerated site sweep.

        ``sites`` selects the enumeration strategy: ``"uniform"`` (the
        default) cycles ``kinds`` over a seeded shuffle of all cells;
        ``"em"`` measures per-cell toggle rates on the campaign's own
        operand stream and places delay faults on the cells the
        electromigration current-density model ages fastest after
        ``em_years``, with exactly the modelled delay magnitudes (see
        :func:`~repro.faults.injector.em_fault_sites`).
        """
        if sites == "em":
            rng = np.random.default_rng(seed)
            high = 1 << architecture.width
            md = rng.integers(0, high, num_patterns, dtype=np.uint64)
            mr = rng.integers(0, high, num_patterns, dtype=np.uint64)
            stats = architecture.factory.stream_result(
                years, {"md": md, "mr": mr}, collect_net_stats=True
            )
            rates = cell_toggle_rates(
                architecture.netlist, stats.toggle_counts, num_patterns
            )
            site_list = em_fault_sites(
                architecture.netlist,
                rates,
                years=em_years,
                em_model=em_model,
                limit=num_sites,
                technology=architecture.technology,
            )
        elif sites == "uniform":
            if transient_rate is None:
                transient_rate = architecture.config.default_transient_rate
            if delay_extra_ns is None:
                delay_extra_ns = 0.5 * architecture.cycle_ns
            site_list = enumerate_fault_sites(
                architecture.netlist,
                kinds=kinds,
                limit=num_sites,
                seed=seed,
                transient_rate=transient_rate,
                delay_extra_ns=delay_extra_ns,
            )
        else:
            raise FaultError(
                "unknown site strategy %r (known: 'uniform', 'em')"
                % (sites,)
            )
        return cls(
            architecture, site_list, num_patterns, seed=seed,
            years=years,
        )

    # ------------------------------------------------------------------

    def fingerprint(self) -> Dict:
        """Stable identity of this campaign's configuration.

        The checkpoint store refuses to resume from a file written by a
        different campaign (different design, workload, seed, aging
        point or site list) -- mixing reports across configurations
        would silently corrupt coverage numbers.
        """
        digest = hashlib.sha256(
            "|".join(self.site_ids).encode("utf-8")
        ).hexdigest()[:16]
        return {
            "design": self.architecture.name,
            "width": self.architecture.width,
            "cycle_ns": self.architecture.cycle_ns,
            "policy": self.architecture.config.recovery_policy,
            "num_patterns": self.num_patterns,
            "seed": self.seed,
            "years": self.years,
            "num_sites": len(self.faults),
            "sites_digest": digest,
        }

    def _pristine_circuit(self):
        """The compiled fault-free circuit (cached; also serves the
        logic-cone reachability masks)."""
        if self._pristine is None:
            self._pristine = compile_with_faults(
                self.architecture.netlist,
                [],
                self.architecture.technology,
                delay_scale=self._base_scale,
            )
        return self._pristine

    def run_pristine(self) -> ArchitectureRunResult:
        """The fault-free reference run on the campaign workload."""
        circuit = self._pristine_circuit()
        stream = circuit.run(
            {"md": self.md, "mr": self.mr}, chunk_size="auto", fold=True
        )
        return self.architecture.run_patterns(
            self.md, self.mr, years=self.years, stream=stream
        )

    def run_site(
        self, fault: FaultModel, site_id: str = ""
    ) -> Tuple[SiteReport, ArchitectureRunResult]:
        """Inject one fault and execute the full control loop."""
        arch = self.architecture
        circuit = compile_with_faults(
            arch.netlist,
            [fault],
            arch.technology,
            delay_scale=self._base_scale,
        )
        # ``fold=True`` only folds hook-free circuits (pure delay
        # faults); value-corrupting hooks make the engine bypass it, so
        # every fault model keeps its exact per-pattern indexing.
        stream = circuit.run(
            {"md": self.md, "mr": self.mr}, chunk_size="auto", fold=True
        )
        result = arch.run_patterns(
            self.md, self.mr, years=self.years, stream=stream
        )
        corrupted = result.products != self._golden
        detected = corrupted & result.errors
        report = result.report
        site = SiteReport(
            label=fault.describe(arch.netlist),
            kind=fault.kind,
            corrupted_ops=int(corrupted.sum()),
            detected_ops=int(detected.sum()),
            silent_ops=int((corrupted & ~result.errors).sum()),
            razor_errors=report.error_count,
            undetectable_ops=report.undetectable_count,
            recovered_ops=report.recovered_ops,
            exhausted_ops=report.recovery_exhausted_ops,
            avg_latency_ns=report.average_latency_ns,
            indicator_aged_at=report.indicator_aged_at,
            site_id=site_id or fault.site_id(),
        )
        return site, result

    # ------------------------------------------------------------------
    # Logic-cone pruning
    # ------------------------------------------------------------------

    def prunable_site_indices(
        self, observed_ports: Optional[Sequence[str]] = None
    ) -> List[int]:
        """Indices of faults whose cone misses every observed output bit.

        A fault at such a site cannot change any observed product value
        *or* arrival time (value and arrival propagation both follow the
        directed cell graph), so its run is provably identical to the
        pristine baseline and can be synthesized instead of simulated.
        ``observed_ports`` narrows the observation to a subset of output
        ports (default: every product bit the workload checks).
        """
        circuit = self._pristine_circuit()
        masks = circuit.output_reach_mask(observed_ports)
        netlist = self.architecture.netlist
        return [
            index
            for index, fault in enumerate(self.faults)
            if not masks[fault.cone_root(netlist)]
        ]

    def _synthesize_pruned(
        self, fault: FaultModel, site_id: str,
        baseline: ArchitectureRunResult,
    ) -> SiteReport:
        """The exact report a pruned site would have produced.

        Because the fault's cone misses every observed output bit, the
        site's products and delays equal the baseline's, so the control
        loop's statistics equal the baseline's and nothing was corrupted
        (the pristine netlist computes golden products).  Property-tested
        against full simulation in ``tests/test_campaign_exec.py``.
        """
        report = baseline.report
        return SiteReport(
            label=fault.describe(self.architecture.netlist),
            kind=fault.kind,
            corrupted_ops=0,
            detected_ops=0,
            silent_ops=0,
            razor_errors=report.error_count,
            undetectable_ops=report.undetectable_count,
            recovered_ops=report.recovered_ops,
            exhausted_ops=report.recovery_exhausted_ops,
            avg_latency_ns=report.average_latency_ns,
            indicator_aged_at=report.indicator_aged_at,
            site_id=site_id,
            pruned=True,
        )

    # ------------------------------------------------------------------
    # Campaign execution
    # ------------------------------------------------------------------

    def run(
        self,
        workers: int = 1,
        checkpoint: Optional[str] = None,
        resume: bool = True,
        prune: bool = True,
        chunk_size: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
        observed_ports: Optional[Sequence[str]] = None,
        site_range: Optional[Tuple[int, int]] = None,
        pool=None,
        pool_spec: Optional[Dict] = None,
    ) -> CampaignResult:
        """Run every site and collect the campaign result.

        Args:
            workers: Processes to shard the site list over (1 = serial
                in-process execution).  Results are bit-identical to the
                serial sweep for any worker count.
            checkpoint: Optional JSONL path; each completed
                :class:`SiteReport` is appended and flushed immediately,
                so a killed sweep loses at most the in-flight sites.
            resume: With ``checkpoint``, skip sites already recorded for
                this campaign's :meth:`fingerprint` (False starts over).
            prune: Skip simulating sites whose logic cone cannot reach
                any observed product bit; their reports are synthesized
                exactly from the baseline.
            chunk_size: Sites per worker batch (default: an even split
                into ~4 batches per worker).
            progress: ``(report, completed, total)`` callback after each
                finished site.
            observed_ports: Output ports the workload observes (pruning
                granularity; default all).
            site_range: Optional ``(lo, hi)`` slice of the site list to
                run -- the manifest-sharding unit.  The partial result
                carries only those sites; merging every shard's
                checkpoint reproduces the full serial result exactly
                (``python -m repro faults merge``).
            pool: Optional :class:`~repro.distrib.pool.WorkerPool`;
                pending sites are dispatched through it instead of a
                local process pool (requires ``pool_spec``).
            pool_spec: JSON-able campaign spec remote workers rebuild
                this campaign from (see :func:`campaign_from_spec`).

        Raises:
            CampaignInterrupted: A SIGINT / :class:`KeyboardInterrupt`
                landed mid-sweep.  The checkpoint is already flushed and
                the exception carries the partial result.
        """
        if workers < 1:
            raise FaultError("workers must be >= 1, got %d" % workers)
        if pool is not None and pool_spec is None:
            raise FaultError(
                "a worker pool needs pool_spec (the JSON campaign spec"
                " remote workers rebuild state from)"
            )
        total = len(self.faults)
        if site_range is None:
            lo, hi = 0, total
        else:
            lo, hi = int(site_range[0]), int(site_range[1])
            if not 0 <= lo <= hi <= total:
                raise FaultError(
                    "site_range (%d, %d) outside [0, %d]"
                    % (lo, hi, total)
                )
        selected = range(lo, hi)
        requested = len(selected)
        baseline = self.run_pristine()

        store = None
        restored: Dict[str, SiteReport] = {}
        if checkpoint is not None:
            from .store import CheckpointStore

            store = CheckpointStore(checkpoint)
            restored = store.open(self.fingerprint(), resume=resume)

        reports: List[Optional[SiteReport]] = [None] * total
        resumed = 0
        for index in selected:
            hit = restored.get(self.site_ids[index])
            if hit is not None:
                reports[index] = hit
                resumed += 1

        pruned_indices = (
            set(self.prunable_site_indices(observed_ports)) & set(selected)
            if prune
            else set()
        )

        completed = resumed
        interrupted = False
        simulated_indices: List[int] = []

        def record(index: int, report: SiteReport) -> None:
            nonlocal completed
            reports[index] = report
            completed += 1
            if store is not None:
                store.append(self.site_ids[index], report)
            if progress is not None:
                progress(report, completed, requested)

        try:
            # Pruned sites are synthesized in-process: cheaper than the
            # cost of shipping them to a worker.
            for index in sorted(pruned_indices):
                if reports[index] is not None:
                    continue
                record(
                    index,
                    self._synthesize_pruned(
                        self.faults[index],
                        self.site_ids[index],
                        baseline,
                    ),
                )
            pending = [
                index
                for index in selected
                if reports[index] is None
            ]
            simulated_indices.extend(pending)
            if pending:
                if pool is not None:
                    from ..distrib.pool import run_campaign_pooled

                    run_campaign_pooled(
                        pool,
                        pool_spec,
                        pending,
                        chunk_size=chunk_size,
                        on_result=record,
                    )
                elif workers > 1:
                    from .parallel import run_sharded

                    run_sharded(
                        self,
                        pending,
                        workers=workers,
                        chunk_size=chunk_size,
                        on_result=record,
                    )
                else:
                    for index in pending:
                        site, _ = self.run_site(
                            self.faults[index], self.site_ids[index]
                        )
                        record(index, site)
        except KeyboardInterrupt:
            interrupted = True
        finally:
            if store is not None:
                store.close()

        done_reports = [
            reports[index] for index in selected
            if reports[index] is not None
        ]
        pruned_count = sum(1 for r in done_reports if r.pruned)
        result = CampaignResult(
            design=self.architecture.name,
            num_patterns=self.num_patterns,
            years=self.years,
            baseline=baseline,
            sites=done_reports,
            pruned_sites=pruned_count,
            resumed_sites=resumed,
            simulated_sites=sum(
                1 for index in simulated_indices
                if reports[index] is not None
            ),
            requested_sites=requested,
        )
        if interrupted:
            raise CampaignInterrupted(
                "campaign interrupted after %d/%d sites%s"
                % (
                    len(done_reports),
                    requested,
                    ""
                    if checkpoint is None
                    else " (checkpoint %s flushed; rerun with resume=True"
                    " to continue)" % checkpoint,
                ),
                partial=result,
                completed=len(done_reports),
                total=requested,
            )
        return result
