"""Dependency-aware parallel suite runner.

``python -m repro experiments all`` used to execute ~30 experiments
strictly serially, and every experiment implicitly (re)characterized
whatever designs it touched.  This module turns the implicit resource
usage into an explicit schedule:

1. **Plan** -- :func:`plan_suite` merges the specs' declared
   :class:`~repro.experiments.registry.Resources` into the set of
   unique ``(width, kind)`` designs and netlists the suite needs.
   Experiments themselves are mutually independent; the only shared
   edges in the dependency graph are these characterization artifacts,
   so the topological order collapses to a few shared stages.
2. **Warm-up** -- each unique design is characterized exactly once
   (widest first: the 32-bit designs dominate) and persisted to the
   shared :class:`~repro.experiments.store.ArtifactStore`.
3. **Prefetch** -- the union of the experiments' declared stream
   demands (:attr:`Resources.demands`) is grouped by value plane, and
   each plane's rows missing from the store are priced with one value
   pass and one replay (:meth:`ExperimentContext.prefetch`), under the
   same ``stream`` keys the experiments look up.  Pooled runs with a
   store shard this stage by plane group: ``plan`` jobs find each
   experiment's planes with missing rows, then one ``prefetch`` job
   prices each plane.
4. **Fan-out** -- with ``pool=`` (or its shorthand ``jobs=N``, meaning
   ``pool="local:N"``) the experiments run as ``experiment`` jobs of
   :mod:`repro.distrib`, widest first.  Each worker holds an
   :class:`~repro.experiments.context.ExperimentContext` backed by the
   same store, so no worker recomputes a warm artifact; the pool's
   ``warmup`` and ``prefetch`` jobs fill that store first.

Rendered experiment outputs are byte-identical to the serial run: every
random draw is seeded, the store round-trips arrays losslessly, and the
two-plane replay is bit-identical to direct simulation, so only the
wall-clock attribution changes.  Workers return rendered strings (plus
timing and cache accounting), not result objects, which keeps the
transport JSON and the parent deterministic: entries are emitted in
request order regardless of completion order.  A worker that raises or
dies becomes an error entry (see :class:`~repro.distrib.pool.LocalPool`
for the crash policy); the rest of the suite completes.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.tables import format_table
from ..config import DEFAULT_SIM_CONFIG, DEFAULT_TECHNOLOGY
from ..errors import ConfigError, DistribError
from .context import ExperimentContext
from .registry import get_experiment, list_experiments
from .store import ArtifactStore, counter_delta, delta_totals


@dataclasses.dataclass(frozen=True)
class SuitePlan:
    """The two-stage schedule of one suite invocation.

    Attributes:
        names: Experiment ids in emission order.
        warmup_designs: Unique ``(width, kind)`` designs to
            characterize up front, widest first.
        warmup_netlists: Unique netlist-only builds not implied by a
            design.
    """

    names: Tuple[str, ...]
    warmup_designs: Tuple[Tuple[int, str], ...]
    warmup_netlists: Tuple[Tuple[int, str], ...]


def shard_ranges(total: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into at most ``shards`` contiguous,
    near-equal ``(lo, hi)`` ranges (first shards one longer when the
    split is uneven).  Shared by the Monte Carlo runner
    (:mod:`repro.montecarlo.runner`): concatenating the per-range
    results in order reproduces the unsharded computation exactly.
    """
    if total < 0:
        raise ConfigError("total must be >= 0, got %r" % (total,))
    if shards < 1:
        raise ConfigError("shards must be >= 1, got %r" % (shards,))
    if total == 0:
        return []
    shards = min(shards, total)
    base, extra = divmod(total, shards)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def plan_suite(names: Sequence[str]) -> SuitePlan:
    """Merge the named specs' resource declarations into a plan."""
    specs = [get_experiment(name) for name in names]
    designs: List[Tuple[int, str]] = []
    netlists: List[Tuple[int, str]] = []
    for spec in specs:
        for pair in spec.resources.designs:
            if pair not in designs:
                designs.append(pair)
        for pair in spec.resources.netlists:
            if pair not in netlists:
                netlists.append(pair)
    netlists = [pair for pair in netlists if pair not in designs]
    # Widest-first: characterizing a 32-bit design dominates warm-up,
    # so it must start before the cheap 8/16-bit ones, not after.
    designs.sort(key=lambda pair: (-pair[0], pair[1]))
    netlists.sort(key=lambda pair: (-pair[0], pair[1]))
    return SuitePlan(
        names=tuple(names),
        warmup_designs=tuple(designs),
        warmup_netlists=tuple(netlists),
    )


@dataclasses.dataclass
class SuiteEntry:
    """One experiment's outcome inside a suite run."""

    name: str
    title: str
    rendered: str
    elapsed: float
    #: Store counter delta attributable to this experiment
    #: (``kind -> {hits, misses, writes}``); empty without a store.
    store_delta: Dict[str, Dict[str, int]]
    #: The result object (serial runs only; parallel workers return
    #: rendered text, so this is None).
    result: object = None
    #: Failure description when the experiment raised or its worker
    #: died -- a degraded-but-typed record instead of an aborted suite.
    error: Optional[str] = None
    #: Stream rows the experiment replayed itself: rows its declared
    #: demands miss (:attr:`ExperimentContext.unplanned_rows`).
    unplanned_rows: int = 0
    #: Paper claims the experiment checked that do not hold (its
    #: result's ``failed_claims``; 0 for experiments that check none).
    failed_claims: int = 0

    def cache_hits(self) -> int:
        return delta_totals(self.store_delta)["hits"]


@dataclasses.dataclass
class SuiteResult:
    """Outcome + accounting of one :func:`run_suite` invocation."""

    entries: List[SuiteEntry]
    plan: SuitePlan
    jobs: int
    wall_s: float
    warmup_s: float
    store_dir: Optional[str]
    #: Merged store counters over parent + all workers (None: no store).
    store_counters: Optional[Dict[str, Dict[str, int]]]
    #: Wall time of the prefetch stage, and the rows it priced over
    #: how many value planes (rows a store already held are skipped).
    prefetch_s: float = 0.0
    prefetch_rows: int = 0
    prefetch_planes: int = 0

    def entry(self, name: str) -> SuiteEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise ConfigError("no suite entry %r" % (name,))

    def rendered_by_name(self) -> Dict[str, str]:
        """Experiment id -> rendered output (the byte-identity surface
        compared across serial / parallel / warm runs)."""
        return {entry.name: entry.rendered for entry in self.entries}

    def total_hits(self) -> int:
        if self.store_counters is None:
            return 0
        return sum(
            stats.get("hits", 0) for stats in self.store_counters.values()
        )

    def failures(self) -> List[SuiteEntry]:
        """Entries whose experiment raised or whose worker died."""
        return [entry for entry in self.entries if entry.error is not None]

    def failed_claims(self) -> int:
        """Paper claims that do not hold, over every entry."""
        return sum(entry.failed_claims for entry in self.entries)

    def render(self) -> str:
        """Per-experiment wall-clock / cache-hit accounting table."""
        rows = []
        for entry in self.entries:
            totals = delta_totals(entry.store_delta)
            rows.append(
                [
                    entry.name,
                    entry.elapsed,
                    float(totals["hits"]),
                    float(totals["misses"]),
                    float(totals["writes"]),
                ]
            )
        lines = [
            "suite: %d experiments, jobs=%d, wall %.1f s"
            " (warm-up %.1f s)"
            % (len(self.entries), self.jobs, self.wall_s, self.warmup_s)
        ]
        if self.store_dir is not None:
            lines.append("store: %s" % self.store_dir)
        unplanned = [
            "%s %d" % (entry.name, entry.unplanned_rows)
            for entry in self.entries
            if entry.unplanned_rows
        ]
        lines.append(
            "prefetch: %d rows over %d value planes in %.1f s;"
            " priced outside the prefetch: %d rows%s"
            % (
                self.prefetch_rows,
                self.prefetch_planes,
                self.prefetch_s,
                sum(entry.unplanned_rows for entry in self.entries),
                " (%s)" % ", ".join(unplanned) if unplanned else "",
            )
        )
        lines.append(
            format_table(
                ["experiment", "seconds", "hits", "misses", "writes"],
                rows,
            )
        )
        if self.failed_claims():
            lines.append(
                "claims: %d do not hold (%s)"
                % (
                    self.failed_claims(),
                    ", ".join(
                        "%s %d" % (entry.name, entry.failed_claims)
                        for entry in self.entries
                        if entry.failed_claims
                    ),
                )
            )
        failed = self.failures()
        if failed:
            lines.append("failed: %d of %d experiments"
                         % (len(failed), len(self.entries)))
            for entry in failed:
                lines.append("  %s -- %s" % (entry.name, entry.error))
        return "\n".join(lines)


def _snapshot(context: ExperimentContext):
    return context.store.snapshot() if context.store is not None else {}


def _delta(context: ExperimentContext, before):
    if context.store is None:
        return {}
    return counter_delta(before, context.store.snapshot())


def _resolve_names(
    names: Optional[Sequence[str]], tag: Optional[str]
) -> List[str]:
    if names:
        resolved = []
        for name in names:
            get_experiment(name)  # validate (did-you-mean on typos)
            if name not in resolved:
                resolved.append(name)
        return resolved
    return [spec.id for spec in list_experiments(tag=tag)]


def _spec_weight(name: str) -> Tuple[int, str]:
    """Submission priority: widest declared design first (the 32-bit
    sweeps dominate the makespan), stable by id."""
    spec = get_experiment(name)
    widths = [width for width, _ in spec.resources.designs]
    return (-max(widths) if widths else 0, name)


def run_suite(
    names: Optional[Sequence[str]] = None,
    tag: Optional[str] = None,
    scale: float = 1.0,
    jobs: int = 1,
    store=None,
    technology=DEFAULT_TECHNOLOGY,
    config=DEFAULT_SIM_CONFIG,
    characterize_patterns: int = 2000,
    context: Optional[ExperimentContext] = None,
    on_result: Optional[Callable[[SuiteEntry], None]] = None,
    pool=None,
) -> SuiteResult:
    """Run a set of experiments, optionally in parallel over a store.

    Args:
        names: Experiment ids (None: every registered experiment,
            filtered by ``tag``).
        scale: Pattern-count multiplier forwarded to every context.
        jobs: Shorthand for ``pool="local:N"`` when N > 1; 1 runs
            serially in this process.
        store: :class:`ArtifactStore`, directory path, or None.  Pooled
            workers share it; without one each worker keeps its own
            in-memory state.
        context: Serial runs only -- reuse an existing context (its
            technology/config/scale win over the other arguments).
        on_result: Called with each :class:`SuiteEntry` as soon as it
            is finalized, always in request order.
        pool: Optional :class:`~repro.distrib.pool.WorkerPool` or pool
            spec string (``"local:4"``); experiments run on its workers
            (default technology/config only -- job specs travel as
            JSON) and return rendered text, byte-identical to the
            serial run.

    Returns:
        A :class:`SuiteResult`; entry order matches the request order,
        and rendered outputs are byte-identical for any pool.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1, got %r" % (jobs,))
    names = _resolve_names(names, tag)
    plan = plan_suite(names)
    if jobs > 1:
        if pool is not None:
            raise ConfigError(
                "pass jobs=N or pool=, not both (jobs=N means"
                " pool='local:N')"
            )
        pool = "local:%d" % min(jobs, max(1, len(names)))
    if isinstance(store, str):
        store = ArtifactStore(store)
    if context is not None and pool is not None:
        raise ConfigError("an explicit context forces a serial run")

    start = time.perf_counter()
    if pool is not None:
        if (technology is not DEFAULT_TECHNOLOGY
                or config is not DEFAULT_SIM_CONFIG):
            raise ConfigError(
                "pooled suites rebuild state from JSON job specs,"
                " which only carry the default technology/config"
            )
        result = _run_pooled(
            plan, scale, store, characterize_patterns, pool, on_result,
        )
    else:
        result = _run_serial(
            plan, scale, store, technology, config,
            characterize_patterns, context, on_result,
        )
    result.wall_s = time.perf_counter() - start
    return result


def _run_pooled(
    plan, scale, store, characterize_patterns, pool, on_result,
) -> SuiteResult:
    """Fan the experiments out over a :class:`WorkerPool`.

    With a store, ``warmup`` jobs first characterize every planned
    design into it (widest first), ``plan`` jobs list each experiment's
    value planes with rows the store lacks, and ``prefetch`` jobs price
    those rows into it, one job per plane; then the
    ``experiment`` jobs run widest first.  Workers rebuild an
    :class:`ExperimentContext` from the job spec and return rendered
    text plus store-counter deltas, which the parent folds into
    ``store``.  Without a store each experiment job prefetches its own
    demands in its worker.
    """
    from ..distrib.pool import open_pool, run_suite_pooled

    base = {
        "scale": scale,
        "characterize_patterns": characterize_patterns,
        "store": store.directory if store is not None else None,
    }
    order = sorted(range(len(plan.names)),
                   key=lambda i: _spec_weight(plan.names[i]))
    entries: List[Optional[SuiteEntry]] = [None] * len(plan.names)
    flushed = 0

    def finalize(position: int, response: Dict) -> None:
        nonlocal flushed
        name = plan.names[order[position]]
        if "error" in response:
            entry = _error_entry(name, response["error"])
        else:
            delta = response.get("store_delta", {})
            if store is not None:
                store.merge_counters(delta)
            entry = SuiteEntry(
                name=name,
                title=response["title"],
                rendered=response["rendered"],
                elapsed=float(response.get("elapsed", 0.0)),
                store_delta=delta,
                unplanned_rows=int(response.get("unplanned_rows", 0)),
                failed_claims=int(response.get("failed_claims", 0)),
            )
        entries[order[position]] = entry
        # Flush finalized entries strictly in request order.
        while flushed < len(entries) and entries[flushed] is not None:
            if on_result is not None:
                on_result(entries[flushed])
            flushed += 1

    with open_pool(pool) as workers:
        warmup_start = time.perf_counter()
        if store is not None:
            warmups = [
                dict(base, job="warmup", design=list(pair))
                for pair in plan.warmup_designs
            ] + [
                dict(base, job="warmup", netlist=list(pair))
                for pair in plan.warmup_netlists
            ]
            for response in run_suite_pooled(workers, warmups):
                _merge_stage(store, "warm-up", response)
        warmup_s = time.perf_counter() - warmup_start
        prefetch_start = time.perf_counter()
        prefetch_rows = prefetch_planes = 0
        if store is not None:
            prefetch_rows, prefetch_planes = _pooled_prefetch(
                workers, base, plan.names, store
            )
        prefetch_s = time.perf_counter() - prefetch_start
        run_suite_pooled(
            workers,
            [dict(base, job="experiment", name=plan.names[i])
             for i in order],
            on_result=finalize,
        )
        size = workers.size
    return SuiteResult(
        entries=entries,
        plan=plan,
        jobs=size,
        wall_s=0.0,
        warmup_s=warmup_s,
        store_dir=store.directory if store is not None else None,
        store_counters=store.snapshot() if store is not None else None,
        prefetch_s=prefetch_s,
        prefetch_rows=prefetch_rows,
        prefetch_planes=prefetch_planes,
    )


def _pooled_prefetch(workers, base: Dict, names, store) -> Tuple[int, int]:
    """The prefetch stage on a pool: ``plan`` jobs list each
    experiment's planes with rows the store lacks, then one
    ``prefetch`` job per such plane, costliest first, names the
    experiments whose demands hold its rows.  Returns ``(rows,
    planes)`` priced."""
    from ..distrib.pool import run_suite_pooled

    owners: Dict[Tuple[str, str], List[str]] = {}
    cost: Dict[Tuple[str, str], int] = {}
    planned = run_suite_pooled(
        workers, [dict(base, job="plan", name=name) for name in names]
    )
    for name, response in zip(names, planned):
        _merge_stage(store, "plan", response)
        for netlist_fp, digest, work in response["planes"]:
            plane = (netlist_fp, digest)
            owners.setdefault(plane, []).append(name)
            cost[plane] = cost.get(plane, 0) + work
    jobs = [
        dict(base, job="prefetch", plane=list(plane),
             experiments=owners[plane])
        for plane in sorted(owners, key=lambda plane: -cost[plane])
    ]
    rows = 0
    for response in run_suite_pooled(workers, jobs):
        _merge_stage(store, "prefetch", response)
        rows += response["rows"]
    return rows, len(jobs)


def _merge_stage(store, stage: str, response: Dict) -> None:
    """Fold one shared-stage job's store counters into ``store``; a
    failed job fails the suite (its experiments would all miss)."""
    if "error" in response:
        raise DistribError(
            "suite %s failed: %s" % (stage, response["error"])
        )
    store.merge_counters(response["store_delta"])


def _run_serial(
    plan, scale, store, technology, config, characterize_patterns,
    context, on_result,
) -> SuiteResult:
    ctx = context or ExperimentContext(
        technology=technology,
        config=config,
        scale=scale,
        characterize_patterns=characterize_patterns,
        store=store,
    )
    warmup_start = time.perf_counter()
    for width, kind in plan.warmup_designs:
        ctx.factory(width, kind)
    for width, kind in plan.warmup_netlists:
        ctx.netlist(width, kind)
    warmup_s = time.perf_counter() - warmup_start
    prefetch_start = time.perf_counter()
    priced = ctx.prefetch(
        [
            demand
            for name in plan.names
            for demand in get_experiment(name).demands(ctx)
        ]
    )
    prefetch_s = time.perf_counter() - prefetch_start

    entries: List[SuiteEntry] = []
    for name in plan.names:
        spec = get_experiment(name)
        before = _snapshot(ctx)
        unplanned = ctx.unplanned_rows
        t0 = time.perf_counter()
        result = spec.run(ctx)
        entry = SuiteEntry(
            name=name,
            title=spec.title,
            rendered=result.render(),
            elapsed=time.perf_counter() - t0,
            store_delta=_delta(ctx, before),
            result=result,
            unplanned_rows=ctx.unplanned_rows - unplanned,
            failed_claims=getattr(result, "failed_claims", 0),
        )
        entries.append(entry)
        if on_result is not None:
            on_result(entry)
    return SuiteResult(
        entries=entries,
        plan=plan,
        jobs=1,
        wall_s=0.0,
        warmup_s=warmup_s,
        store_dir=ctx.store.directory if ctx.store else None,
        store_counters=ctx.store.snapshot() if ctx.store else None,
        prefetch_s=prefetch_s,
        prefetch_rows=sum(priced.values()),
        prefetch_planes=len(priced),
    )


def _error_entry(name: str, message: str) -> SuiteEntry:
    """A degraded-but-typed record for a failed experiment."""
    spec = get_experiment(name)
    return SuiteEntry(
        name=name,
        title=spec.title,
        rendered="ERROR: %s" % message,
        elapsed=0.0,
        store_delta={},
        error=message,
    )
