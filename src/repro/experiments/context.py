"""Shared, cached experiment state.

The paper's evaluation reuses the same five designs (AM, FLCB, FLRB,
A-VLCB, A-VLRB) at two widths across ~20 figures.  Building a 32x32
bypassing multiplier and simulating 10 000 patterns through it costs
seconds, so the context memoizes:

* generated netlists per ``(width, kind)``,
* characterized :class:`~repro.aging.AgedCircuitFactory` instances
  (stress profiles + compiled circuits per year),
* operand streams per ``(width, num_patterns, seed)``,
* standard :class:`~repro.timing.engine.StreamResult` s per
  ``(width, kind, years, num_patterns, seed)`` -- the clock-period
  sweeps then only re-run the (cheap) architecture control loop.

:meth:`ExperimentContext.price` is the one path from an experiment to
the timing engine: it prices any netlist under any ``(k, num_cells)``
delay-scale matrix and any stimulus, and with a store every priced row
persists as a ``stream`` artifact, so a warm re-run replays nothing.
An experiment declares the rows it prices as :class:`StreamDemand` s
through :meth:`ExperimentContext.demands`, which builds and keys each
declaration once per context, and :meth:`ExperimentContext.prefetch`
prices the demands of many experiments with one replay per value plane
before any of them runs.

``scale`` < 1.0 shrinks every pattern count proportionally -- the
benchmark suite uses it to keep wall-clock reasonable while preserving
the statistics (documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..aging.degradation import AgedCircuitFactory
from ..arith import booth_multiplier, dadda_multiplier, wallace_multiplier
from ..config import (
    DEFAULT_SIM_CONFIG,
    DEFAULT_TECHNOLOGY,
    SimulationConfig,
    Technology,
)
from ..core.architecture import AgingAwareMultiplier
from ..core.baselines import FixedLatencyDesign, build_multiplier
from ..errors import ConfigError
from ..nets.netlist import Netlist
from ..timing.engine import CompiledCircuit, StreamResult
from ..timing.replay import build_switched_caps
from ..timing.value_cache import (
    ValuePlaneCache,
    netlist_fingerprint,
    power_key,
    stimulus_digest,
    stream_keys,
    technology_fingerprint,
)
from ..workloads.generators import uniform_operands
from .store import ArtifactStore

#: Seed offset so experiment streams differ from characterization streams.
STREAM_SEED_BASE = 77_000

#: Seed the characterization workload uses (AgedCircuitFactory default).
CHARACTERIZE_SEED = 2014

#: Related-work multipliers :meth:`ExperimentContext.netlist` builds
#: next to the paper's ``am``/``column``/``row``.  They are generated
#: per process and never stored, so a store holds the paper's designs
#: only.
BASELINE_GENERATORS = {
    "wallace": wallace_multiplier,
    "dadda": dadda_multiplier,
    "booth": booth_multiplier,
}


@dataclasses.dataclass(frozen=True, eq=False)
class StreamDemand:
    """Rows of one stream an experiment prices, as data.

    Attributes:
        width / kind: The netlist, :meth:`ExperimentContext.netlist`
            ``(width, kind)``.
        stimulus: Port name -> operand array.
        scales: ``(k, num_cells)`` delay-scale rows (a row of ones is
            the fresh circuit).
    """

    width: int
    kind: str
    stimulus: Dict[str, np.ndarray]
    scales: np.ndarray


def _row_key(key: Dict) -> Tuple:
    """A hashable form of one :func:`stream_keys` key."""
    return tuple(sorted(key.items()))


def _frozen(value):
    """A hashable form of one declaring-function argument."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(_frozen(item) for item in value)
    return value


def standard_demands(
    context: "ExperimentContext",
    width: int,
    kinds: Sequence[str] = ("column", "row"),
    years=0.0,
    num_patterns: Optional[int] = None,
    paper_patterns: int = 10000,
    **_,
) -> List[StreamDemand]:
    """The declaration of an experiment that reads standard streams
    (:meth:`ExperimentContext.stream_results`): the
    :meth:`~ExperimentContext.standard_demand` of each of ``kinds`` at
    ``years`` (one age or many) on ``num_patterns`` patterns (default:
    ``paper_patterns``, scaled)."""
    n = num_patterns or context.patterns(paper_patterns)
    years = np.atleast_1d(years).tolist()
    return [context.standard_demand(width, kind, years, n) for kind in kinds]


@dataclasses.dataclass
class ExperimentContext:
    """Caches shared between experiments.  Not thread-safe."""

    technology: Technology = DEFAULT_TECHNOLOGY
    config: SimulationConfig = DEFAULT_SIM_CONFIG
    #: Global pattern-count multiplier (1.0 = the paper's counts).
    scale: float = 1.0
    characterize_patterns: int = 2000
    #: Optional persistent :class:`~repro.experiments.store
    #: .ArtifactStore`.  When set, netlists / stress profiles / stream
    #: results are looked up there before being computed, every fresh
    #: computation is persisted, and value planes persist as ``plane``
    #: artifacts -- a warm re-run prices no stream.
    store: Optional[ArtifactStore] = None

    def __post_init__(self):
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        self._netlists: Dict[Tuple[int, str], Netlist] = {}
        self._factories: Dict[Tuple[int, str], AgedCircuitFactory] = {}
        self._streams: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._runs: Dict[Tuple[int, str, float, int, int], StreamResult] = {}
        self._fixed: Dict[Tuple[int, str], FixedLatencyDesign] = {}
        self._activity: Dict[Tuple[int, str, int, int], np.ndarray] = {}
        self._power: Dict[Tuple[int, str, int, int], np.ndarray] = {}
        #: Rows priced here, by ``stream`` key: every :meth:`prefetch`
        #: row, and without a store every row :meth:`price` returned.
        self._priced: Dict[Tuple, StreamResult] = {}
        #: :meth:`demands` lists by declaring function and arguments,
        #: and :meth:`standard_demand` s by their arguments.
        self._declared: Dict[Tuple, object] = {}
        #: Per demand: its value plane and its rows' ``stream`` keys.
        self._plans: Dict[StreamDemand, Tuple[Tuple[str, str], List]] = {}
        #: ``(plane, sha256 of a row)`` -> ``stream`` key.
        self._row_keys: Dict[Tuple[Tuple[str, str], str], Dict] = {}
        #: Rows :meth:`price` replayed itself, outside any
        #: :meth:`prefetch`: a missing or stale demand declaration.
        #: Rows a store serves load and do not count.
        self.unplanned_rows = 0

    # -- store keys ----------------------------------------------------

    def _stress_key(self, width: int, kind: str) -> Dict:
        return {
            "netlist": netlist_fingerprint(self.netlist(width, kind)),
            "technology": technology_fingerprint(self.technology),
            "num_patterns": self.characterize_patterns,
            "seed": CHARACTERIZE_SEED,
        }

    def _activity_key(
        self, width: int, kind: str, num_patterns: int, seed: int
    ) -> Dict:
        key = self._stress_key(width, kind)
        key.update(
            {
                "stream_seed": STREAM_SEED_BASE + seed,
                "stream_patterns": num_patterns,
            }
        )
        return key

    # ------------------------------------------------------------------

    def patterns(self, paper_count: int, floor: int = 200) -> int:
        """Scale a paper pattern count (never below ``floor``)."""
        return max(floor, int(round(paper_count * self.scale)))

    def netlist(self, width: int, kind: str) -> Netlist:
        key = (width, kind)
        if key not in self._netlists:
            if kind in BASELINE_GENERATORS:
                self._netlists[key] = BASELINE_GENERATORS[kind](width)
            elif self.store is not None:
                self._netlists[key] = self.store.get_or_build(
                    "netlist",
                    {"width": width, "kind": kind},
                    lambda: build_multiplier(width, kind),
                )
            else:
                self._netlists[key] = build_multiplier(width, kind)
        return self._netlists[key]

    def factory(self, width: int, kind: str) -> AgedCircuitFactory:
        key = (width, kind)
        if key not in self._factories:
            netlist = self.netlist(width, kind)
            if self.store is not None:
                stress = self.store.get_or_build(
                    "stress",
                    self._stress_key(width, kind),
                    lambda: AgedCircuitFactory.characterize_stress(
                        netlist,
                        self.technology,
                        num_patterns=self.characterize_patterns,
                        seed=CHARACTERIZE_SEED,
                    ),
                )
                factory = AgedCircuitFactory(netlist, stress, self.technology)
                factory.use_plane_cache(ValuePlaneCache(store=self.store))
            else:
                factory = AgedCircuitFactory.characterize(
                    netlist,
                    self.technology,
                    num_patterns=self.characterize_patterns,
                    seed=CHARACTERIZE_SEED,
                )
            self._factories[key] = factory
        return self._factories[key]

    def fixed_design(self, width: int, kind: str) -> FixedLatencyDesign:
        """The fixed-latency baseline (memoized, so its per-year static
        timing cache is shared by every experiment in a suite run)."""
        key = (width, kind)
        if key not in self._fixed:
            self._fixed[key] = FixedLatencyDesign(
                self.netlist(width, kind),
                self.factory(width, kind),
                self.technology,
            )
        return self._fixed[key]

    def variable_design(
        self,
        width: int,
        kind: str,
        skip: int,
        cycle_ns: float,
        adaptive: bool = True,
    ) -> AgingAwareMultiplier:
        """An architecture sharing this context's factory caches."""
        return AgingAwareMultiplier(
            netlist=self.netlist(width, kind),
            kind=kind,
            width=width,
            skip=skip,
            cycle_ns=cycle_ns,
            factory=self.factory(width, kind),
            technology=self.technology,
            config=self.config,
            adaptive=adaptive,
        )

    # ------------------------------------------------------------------

    def stream(
        self, width: int, num_patterns: int, seed: int = 1
    ) -> Tuple[np.ndarray, np.ndarray]:
        key = (width, num_patterns, seed)
        if key not in self._streams:
            self._streams[key] = uniform_operands(
                width, num_patterns, STREAM_SEED_BASE + seed
            )
        return self._streams[key]

    def _pricer(
        self, netlist: Netlist
    ) -> Tuple[Callable[[], CompiledCircuit], ValuePlaneCache]:
        """How to compile the fresh ``netlist`` and the value-plane
        cache to price it with: its factory's when the context has one,
        so the two share one compile and one plane; otherwise a compile
        and a cache for this call (store-backed planes still persist)."""
        for factory in self._factories.values():
            if factory.netlist is netlist:
                return (
                    functools.partial(factory.circuit, 0.0),
                    factory.plane_cache,
                )
        return (
            functools.partial(CompiledCircuit, netlist, self.technology),
            ValuePlaneCache(store=self.store),
        )

    def demands(
        self, declare: Callable[..., Sequence[StreamDemand]], *args, **kw
    ) -> List[StreamDemand]:
        """``declare(self, *args, **kw)``, memoized by ``declare`` and
        its bound, default-applied arguments (a ``**`` catch-all
        excluded): a suite's prefetch and the runner get the same
        :class:`StreamDemand` s, each built and keyed once."""
        bound = inspect.signature(declare).bind(self, *args, **kw)
        bound.apply_defaults()
        params = bound.signature.parameters
        key = (declare,) + tuple(
            (name, _frozen(value))
            for name, value in list(bound.arguments.items())[1:]
            if params[name].kind is not inspect.Parameter.VAR_KEYWORD
        )
        if key not in self._declared:
            self._declared[key] = list(declare(self, *args, **kw))
        return self._declared[key]

    def _plan(self, demand: StreamDemand) -> Tuple[Tuple[str, str], List]:
        """The value plane of ``demand``, ``(netlist fingerprint,
        stimulus digest)``, and the ``stream`` keys of its rows:
        computed on first use and kept.  A row an earlier demand on the
        same plane holds reuses that demand's key."""
        if demand not in self._plans:
            netlist = self.netlist(demand.width, demand.kind)
            plane = (
                netlist_fingerprint(netlist),
                stimulus_digest(demand.stimulus),
            )
            scales = np.ascontiguousarray(demand.scales, dtype=np.float64)
            rows = [(plane, hashlib.sha256(row).hexdigest()) for row in scales]
            new = {row: index for index, row in enumerate(rows)
                   if row not in self._row_keys}
            if new:
                self._row_keys.update(zip(new, stream_keys(
                    netlist,
                    self.technology,
                    demand.stimulus,
                    scales[list(new.values())],
                )))
            self._plans[demand] = (plane, [self._row_keys[r] for r in rows])
        return self._plans[demand]

    def price(
        self,
        netlist: Netlist,
        scales: np.ndarray,
        stimulus: Dict[str, np.ndarray],
    ) -> List[StreamResult]:
        """Stream results of ``netlist`` on ``stimulus``, one per row of
        the ``(k, num_cells)`` delay-scale matrix ``scales`` (a row of
        ones is the fresh circuit).

        Rows this context prefetched (or, without a store, priced) are
        memoized by their ``stream`` key.  For the others
        :meth:`~repro.timing.value_cache.ValuePlaneCache.price` does the
        work: it loads the rows the store holds and prices the rest
        together in one batched arrival replay over the cached value
        plane, each bit-identical to ``CompiledCircuit(netlist,
        technology, row).run(stimulus)``; those count as
        :attr:`unplanned_rows`.  Pricing never characterizes stress, so
        any netlist can be priced.
        """
        scales = np.atleast_2d(np.asarray(scales, dtype=float))
        keys = stream_keys(netlist, self.technology, stimulus, scales)
        return self._price(netlist, scales, stimulus, keys, planned=False)

    def price_demand(self, demand: StreamDemand) -> List[StreamResult]:
        """:meth:`price` of one declared :class:`StreamDemand`, under
        the keys its plan holds."""
        return self._price(
            self.netlist(demand.width, demand.kind),
            demand.scales,
            demand.stimulus,
            self._plan(demand)[1],
            planned=False,
        )

    def _price(self, netlist, scales, stimulus, keys, planned: bool):
        names = [_row_key(key) for key in keys]
        found: Dict[Tuple, StreamResult] = {}
        todo: Dict[Tuple, int] = {}
        for index, name in enumerate(names):
            if name in self._priced:
                found[name] = self._priced[name]
            else:
                todo.setdefault(name, index)
        if todo:
            circuit, planes = self._pricer(netlist)
            before = planes.priced_rows
            rows = list(todo.values())
            fresh = dict(zip(todo, planes.price(
                [keys[index] for index in rows],
                scales[rows],
                stimulus,
                circuit,
            )))
            if not planned:
                self.unplanned_rows += planes.priced_rows - before
            # A store serves its rows on demand; the memo keeps what a
            # prefetch priced for the experiments still to read it.
            if planned or self.store is None:
                self._priced.update(fresh)
            found.update(fresh)
        return [found[name] for name in names]

    def plane_groups(
        self, demands: Sequence[StreamDemand]
    ) -> Dict[Tuple[str, str], List[StreamDemand]]:
        """``demands`` grouped by the value plane they price on,
        ``(netlist fingerprint, stimulus digest)``, in first-seen
        order."""
        groups: Dict[Tuple[str, str], List[StreamDemand]] = {}
        for demand in demands:
            groups.setdefault(self._plan(demand)[0], []).append(demand)
        return groups

    def unpriced(
        self, group: Sequence[StreamDemand]
    ) -> Tuple[Netlist, Dict[str, np.ndarray], np.ndarray, List[Dict]]:
        """The netlist, stimulus, distinct delay-scale rows and their
        keys of one plane group that are neither memoized nor stored
        (stored rows are checked for, not loaded)."""
        wanted: Dict[Tuple, Tuple[np.ndarray, Dict]] = {}
        for demand in group:
            for row, key in zip(demand.scales, self._plan(demand)[1]):
                name = _row_key(key)
                if name in self._priced or name in wanted:
                    continue
                if self.store is None or not self.store.contains(
                    "stream", key
                ):
                    wanted[name] = (row, key)
        first = group[0]
        return (
            self.netlist(first.width, first.kind),
            first.stimulus,
            np.array([row for row, _ in wanted.values()]),
            [key for _, key in wanted.values()],
        )

    def prefetch(
        self,
        demands: Sequence[StreamDemand],
        planes: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> Dict[Tuple[str, str], int]:
        """Price the :meth:`unpriced` rows of ``demands`` with one
        :meth:`~repro.timing.value_cache.ValuePlaneCache.price` call
        (one value pass, one replay) per value plane; :meth:`price`
        then serves them as memo or store hits.  ``planes`` restricts
        the work to those :meth:`plane_groups` keys.  Returns the
        number of rows priced per priced plane.
        """
        priced: Dict[Tuple[str, str], int] = {}
        for plane, group in self.plane_groups(demands).items():
            if planes is not None and plane not in planes:
                continue
            netlist, stimulus, rows, keys = self.unpriced(group)
            if keys:
                self._price(netlist, rows, stimulus, keys, planned=True)
                priced[plane] = len(keys)
        return priced

    def stream_result(
        self,
        width: int,
        kind: str,
        years: float,
        num_patterns: int,
        seed: int = 1,
    ) -> StreamResult:
        """The standard stream of one design at age ``years``
        (:meth:`stream_results` of one timestep)."""
        return self.stream_results(
            width, kind, [years], num_patterns, seed=seed
        )[0]

    def stream_results(
        self,
        width: int,
        kind: str,
        years: "Sequence[float]",
        num_patterns: int,
        seed: int = 1,
    ) -> "List[StreamResult]":
        """The standard stream of one design at many aging timesteps
        (one per ``years`` entry): the rows of the
        :meth:`standard_demand` of ``years`` not read before, priced
        under the keys its plan holds.

        The priced rows are memoized per ``(width, kind, year,
        num_patterns, seed)``, so a repeated call (the clock-period
        sweeps make hundreds) builds no demand and prices no row; a
        first call with the years an experiment declared reads the
        very demand the prefetch planned.
        """
        keys = [
            (width, kind, float(year), num_patterns, seed) for year in years
        ]
        missing = {
            key: row for row, key in enumerate(keys) if key not in self._runs
        }
        if missing:
            demand = self.standard_demand(
                width, kind, years, num_patterns, seed
            )
            rows = list(missing.values())
            row_keys = self._plan(demand)[1]
            priced = self._price(
                self.netlist(width, kind),
                demand.scales[rows],
                demand.stimulus,
                [row_keys[row] for row in rows],
                planned=False,
            )
            self._runs.update(zip(missing, priced))
        return [self._runs[key] for key in keys]

    def standard_demand(
        self,
        width: int,
        kind: str,
        years: "Sequence[float]",
        num_patterns: int,
        seed: int = 1,
    ) -> StreamDemand:
        """The rows :meth:`stream_results` prices: the design's lifetime
        delay-scale rows at ``years`` on its standard stream (built once
        per arguments, next to the :meth:`demands` declarations).  At
        year 0 only, the rows are ones and need no characterization."""
        key = (width, kind, tuple(map(float, years)), num_patterns, seed)
        if key not in self._declared:
            md, mr = self.stream(width, num_patterns, seed)
            cells = len(self.netlist(width, kind).cells)
            scales = (
                self.factory(width, kind).lifetime_delay_scales(years)
                if any(years) else np.ones((len(years), cells))
            )
            self._declared[key] = StreamDemand(
                width, kind, {"md": md, "mr": mr}, scales
            )
        return self._declared[key]

    def toggle_counts(
        self, width: int, kind: str, num_patterns: int, seed: int = 1
    ) -> np.ndarray:
        """Per-net toggle counts of the standard stream (memoized),
        persisted as an ``activity`` artifact when a store is set.

        One values-only pass through the fresh circuit
        (:meth:`~repro.timing.engine.CompiledCircuit.toggle_counts`):
        toggles do not depend on delay, so no aging point is involved.
        """

        def build() -> np.ndarray:
            md, mr = self.stream(width, num_patterns, seed)
            circuit = self.factory(width, kind).circuit(0.0)
            return circuit.toggle_counts({"md": md, "mr": mr})

        key = (width, kind, num_patterns, seed)
        if key not in self._activity:
            if self.store is None:
                self._activity[key] = build()
            else:
                self._activity[key] = self.store.get_or_build(
                    "activity",
                    self._activity_key(width, kind, num_patterns, seed),
                    build,
                )
        return self._activity[key]

    def switched_caps(
        self, width: int, kind: str, num_patterns: int, seed: int = 1
    ) -> np.ndarray:
        """Per-pattern switched capacitance of the standard stream
        through the fresh design (memoized), persisted as a ``power``
        artifact when a store is set.

        One power pass (:func:`~repro.timing.replay
        .build_switched_caps`): switched capacitance does not depend on
        delay, so every aging row of the design shares it, and no
        priced stream carries it.  Only the consumers that read power
        call this.
        """
        key = (width, kind, num_patterns, seed)
        if key not in self._power:
            netlist = self.netlist(width, kind)
            md, mr = self.stream(width, num_patterns, seed)
            stimulus = {"md": md, "mr": mr}

            def build() -> np.ndarray:
                circuit, _ = self._pricer(netlist)
                return build_switched_caps(circuit(), stimulus)

            if self.store is None:
                self._power[key] = build()
            else:
                self._power[key] = self.store.get_or_build(
                    "power",
                    power_key(netlist, self.technology, stimulus),
                    build,
                )
        return self._power[key]

    def clear(self) -> None:
        """Drop every cache (used by memory-sensitive test runs)."""
        self._netlists.clear()
        self._factories.clear()
        self._streams.clear()
        self._runs.clear()
        self._fixed.clear()
        self._activity.clear()
        self._power.clear()
        self._priced.clear()
        self._declared.clear()
        self._plans.clear()
        self._row_keys.clear()


#: Module-level default context shared by ad-hoc callers.
DEFAULT_CONTEXT: Optional[ExperimentContext] = None


def default_context() -> ExperimentContext:
    """The lazily created process-wide context."""
    global DEFAULT_CONTEXT
    if DEFAULT_CONTEXT is None:
        DEFAULT_CONTEXT = ExperimentContext()
    return DEFAULT_CONTEXT
