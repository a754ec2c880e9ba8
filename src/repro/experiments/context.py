"""Shared, cached experiment state.

The paper's evaluation reuses the same five designs (AM, FLCB, FLRB,
A-VLCB, A-VLRB) at two widths across ~20 figures.  Building a 32x32
bypassing multiplier and simulating 10 000 patterns through it costs
seconds, so the context memoizes:

* generated netlists per ``(width, kind)``,
* characterized :class:`~repro.aging.AgedCircuitFactory` instances
  (stress profiles + compiled circuits per year),
* operand streams per ``(width, num_patterns, seed)``,
* full :class:`~repro.timing.engine.StreamResult` runs per
  ``(width, kind, years, num_patterns, seed)`` -- the clock-period
  sweeps then only re-run the (cheap) architecture control loop.

``scale`` < 1.0 shrinks every pattern count proportionally -- the
benchmark suite uses it to keep wall-clock reasonable while preserving
the statistics (documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..aging.degradation import AgedCircuitFactory
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
from ..timing.engine import StreamResult
from ..timing.value_cache import ValuePlaneCache, netlist_fingerprint
from ..workloads.generators import uniform_operands
from .store import ArtifactStore, technology_fingerprint

#: Seed offset so experiment streams differ from characterization streams.
STREAM_SEED_BASE = 77_000

#: Seed the characterization workload uses (AgedCircuitFactory default).
CHARACTERIZE_SEED = 2014


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
    #: computation is persisted, and factories cache value planes under
    #: the store directory -- a warm re-run touches almost no simulation.
    store: Optional[ArtifactStore] = None

    def __post_init__(self):
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        self._netlists: Dict[Tuple[int, str], Netlist] = {}
        self._factories: Dict[Tuple[int, str], AgedCircuitFactory] = {}
        self._streams: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._runs: Dict[Tuple[int, str, float, int, int], StreamResult] = {}
        self._fixed: Dict[Tuple[int, str], FixedLatencyDesign] = {}
        self._tech_fp: Optional[str] = None
        self._netlist_fps: Dict[Tuple[int, str], str] = {}

    # -- store keys ----------------------------------------------------

    def _technology_fp(self) -> str:
        if self._tech_fp is None:
            self._tech_fp = technology_fingerprint(self.technology)
        return self._tech_fp

    def _netlist_fp(self, width: int, kind: str) -> str:
        key = (width, kind)
        if key not in self._netlist_fps:
            self._netlist_fps[key] = netlist_fingerprint(
                self.netlist(width, kind)
            )
        return self._netlist_fps[key]

    def _stress_key(self, width: int, kind: str) -> Dict:
        return {
            "netlist": self._netlist_fp(width, kind),
            "technology": self._technology_fp(),
            "num_patterns": self.characterize_patterns,
            "seed": CHARACTERIZE_SEED,
        }

    def _stream_key(
        self,
        width: int,
        kind: str,
        years: float,
        num_patterns: int,
        seed: int,
        collect_net_stats: bool,
    ) -> Dict:
        key = self._stress_key(width, kind)
        key.update(
            {
                "years": float(years),
                "stream_seed": STREAM_SEED_BASE + seed,
                "stream_patterns": num_patterns,
                "net_stats": bool(collect_net_stats),
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
            if self.store is not None:
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
                factory.use_plane_cache(
                    ValuePlaneCache(directory=self.store.planes_dir())
                )
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

    def stream_result(
        self,
        width: int,
        kind: str,
        years: float,
        num_patterns: int,
        seed: int = 1,
        collect_net_stats: bool = False,
    ) -> StreamResult:
        """Cached circuit simulation of the standard stream.

        Backed by the two-plane engine: the factory computes (and
        caches) one value plane per stimulus and replays arrivals for
        the requested age -- bit-identical to a full
        ``circuit(years).run(...)``.
        """
        return self.stream_results(
            width,
            kind,
            [years],
            num_patterns,
            seed=seed,
            collect_net_stats=collect_net_stats,
        )[0]

    def stream_results(
        self,
        width: int,
        kind: str,
        years: "Sequence[float]",
        num_patterns: int,
        seed: int = 1,
        collect_net_stats: bool = False,
    ) -> "List[StreamResult]":
        """Stream results for many aging timesteps (one per ``years``
        entry), batch-replaying every timestep missing from the cache
        in a single vectorized arrival pass."""
        keys = [
            (width, kind, float(year), num_patterns, seed)
            for year in years
        ]
        missing = []
        for key in keys:
            cached = self._runs.get(key)
            if cached is None or (
                collect_net_stats and cached.signal_prob is None
            ):
                if key not in missing:
                    missing.append(key)
        if missing and self.store is not None:
            still_missing = []
            for key in missing:
                stored = self.store.load(
                    "stream",
                    self._stream_key(
                        width, kind, key[2], num_patterns, seed,
                        collect_net_stats,
                    ),
                )
                if stored is None:
                    still_missing.append(key)
                else:
                    self._runs[key] = stored
            missing = still_missing
        if missing:
            md, mr = self.stream(width, num_patterns, seed)
            fresh = self.factory(width, kind).stream_results(
                [key[2] for key in missing],
                {"md": md, "mr": mr},
                collect_net_stats=collect_net_stats,
            )
            for key, result in zip(missing, fresh):
                self._runs[key] = result
                if self.store is not None:
                    self.store.save(
                        "stream",
                        self._stream_key(
                            width, kind, key[2], num_patterns, seed,
                            collect_net_stats,
                        ),
                        result,
                    )
        return [self._runs[key] for key in keys]

    def clear(self) -> None:
        """Drop every cache (used by memory-sensitive test runs)."""
        self._netlists.clear()
        self._factories.clear()
        self._streams.clear()
        self._runs.clear()
        self._fixed.clear()


#: Module-level default context shared by ad-hoc callers.
DEFAULT_CONTEXT: Optional[ExperimentContext] = None


def default_context() -> ExperimentContext:
    """The lazily created process-wide context."""
    global DEFAULT_CONTEXT
    if DEFAULT_CONTEXT is None:
        DEFAULT_CONTEXT = ExperimentContext()
    return DEFAULT_CONTEXT
