"""Population analytics: yield/latency surfaces and guard-band tuning.

Everything here is a cheap post-pass over the compact
:class:`~repro.montecarlo.population.PopulationReductions` -- no replay,
no netlists.  Three products:

* **Timing-yield surface** over (year, clock period): the fraction of
  dies running *error-free* -- every judged-one-cycle pattern completes
  within the cycle period (no Razor violations) and the critical path
  fits the two-cycle envelope.
* **Latency surface**: mean cycles (and ns) per operation, per die and
  population-averaged, from the architecture's cycle accounting -- 1
  for clean one-cycle patterns, ``1 + razor_penalty_cycles`` for
  recoverable violations, 2 for two-cycle patterns,
  ``razor_penalty_cycles + min(ceil(d / T), max_fallback_cycles)`` for
  operations beyond the two-cycle budget (the degrade-to-multicycle
  policy).
* **Guard-band tuning**: for every (year, clock) point the smallest
  AHL Skip-n whose timing yield meets ``spec.target_yield``.  Because
  the reductions keep the max delay per judged-operand zero count,
  one suffix-max gives the worst one-cycle delay for *every* skip at
  once -- tuning over all candidates costs O(dies x skips), not another
  Monte Carlo.

The derived :class:`MonteCarloResult` holds plain Python lists only and
implements the ``summary()`` / ``to_dict()`` protocol of
:mod:`repro.analysis.serialize`, so the ``mc`` CLI's JSON output is
byte-stable across runs, shard counts and store temperature.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..config import DEFAULT_SIM_CONFIG, SimulationConfig
from ..core.ahl import skip_candidates
from ..errors import ConfigError
from .population import PopulationReductions
from .spec import MonteCarloSpec


def suffix_max(bucket_max_ns: np.ndarray) -> np.ndarray:
    """``out[..., s] = max(bucket_max_ns[..., s:])`` -- the worst delay
    among patterns a Skip-``s`` block judges one-cycle."""
    flipped = np.flip(bucket_max_ns, axis=-1)
    return np.flip(np.maximum.accumulate(flipped, axis=-1), axis=-1)


def _feasible(
    worst_one: np.ndarray,
    crit: np.ndarray,
    clock_ns: np.ndarray,
) -> np.ndarray:
    """``(D, Y, C)`` die-passes-timing flags.

    A die passes at (year, T) when it runs *error-free*: every pattern
    its judging block declares one-cycle truly completes within one
    cycle (``worst_one <= T`` -- no Razor violations), and the critical
    path fits the two-cycle envelope (``crit <= 2T`` -- two-cycle and
    recovery timing always safe).  Raising the skip shrinks the
    one-cycle set, so a slow or aged die can be brought back above a
    yield target by trading latency -- exactly the guard-band knob
    :func:`tune_guardband` turns.
    """
    return (worst_one[:, :, None] <= clock_ns[None, None, :]) & (
        crit[:, :, None] <= 2.0 * clock_ns[None, None, :]
    )


def yield_for_skip(
    reductions: PopulationReductions,
    skip: int,
) -> np.ndarray:
    """Timing-yield surface ``(Y, C)`` if the AHL ran Skip-``skip``."""
    if not 0 <= skip <= reductions.width:
        raise ConfigError(
            "skip=%d out of range for width %d"
            % (skip, reductions.width)
        )
    worst_one = suffix_max(reductions.bucket_max_ns)[:, :, skip]
    clock = np.asarray(reductions.clock_ns)
    feasible = _feasible(worst_one, reductions.crit_ns, clock)
    return feasible.mean(axis=0)


def tune_guardband(
    reductions: PopulationReductions,
    target_yield: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """Smallest Skip-n meeting ``target_yield`` per (year, clock).

    Returns ``(skip_grid, yield_grid)``: ``skip_grid[y, c]`` is the
    smallest AHL-legal skip whose population timing yield reaches the
    target (-1 when even the strictest skip falls short), and
    ``yield_grid[y, c]`` the yield that skip achieves (for -1: the
    strictest candidate's yield).  Raising the skip only shrinks the
    one-cycle set, so yield is monotone in skip and the scan stops at
    the first hit.
    """
    suffix = suffix_max(reductions.bucket_max_ns)
    clock = np.asarray(reductions.clock_ns)
    candidates = list(skip_candidates(reductions.width))
    num_years = reductions.crit_ns.shape[1]
    num_clocks = clock.shape[0]
    skip_grid = np.full((num_years, num_clocks), -1, dtype=np.int64)
    yield_grid = np.zeros((num_years, num_clocks))
    undecided = np.ones((num_years, num_clocks), dtype=bool)
    for skip in candidates:
        surface = _feasible(
            suffix[:, :, skip], reductions.crit_ns, clock
        ).mean(axis=0)
        hit = undecided & (surface >= target_yield)
        skip_grid[hit] = skip
        yield_grid[hit] = surface[hit]
        undecided &= ~hit
        if skip == candidates[-1]:
            # Record the strictest achievable yield for unmet points.
            yield_grid[undecided] = surface[undecided]
        if not undecided.any():
            break
    return skip_grid, yield_grid


def latency_surfaces(
    reductions: PopulationReductions,
    config: SimulationConfig = DEFAULT_SIM_CONFIG,
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-die mean ``(cycles, latency_ns)`` per operation, each
    ``(D, Y, C)``, at the reductions' configured skip, from the
    architecture's cycle accounting (see module docstring)."""
    red = reductions
    total_patterns = float(red.num_patterns)
    one_viol = red.one_violations.astype(float)
    one_deep = red.one_deep.astype(float)
    deep_ops = red.deep_ops.astype(float)
    two_deep = deep_ops - one_deep
    one_clean = float(red.num_one) - one_viol - one_deep
    two_clean = float(red.num_patterns - red.num_one) - two_deep
    penalty = float(config.razor_penalty_cycles)
    total_cycles = (
        one_clean
        + one_viol * (1.0 + penalty)
        + two_clean * 2.0
        + deep_ops * penalty
        + red.deep_cycles
    )
    cycles = total_cycles / total_patterns
    clock = np.asarray(red.clock_ns)
    return cycles, cycles * clock[None, None, :]


def critical_path_histogram(
    reductions: PopulationReductions, num_bins: int = 32
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-year critical-path histogram over the die population.

    Returns ``(edges, counts)`` with shared ``(num_bins + 1,)`` edges
    spanning the population's full range and ``(Y, num_bins)`` counts.
    """
    if num_bins < 1:
        raise ConfigError("num_bins must be >= 1")
    crit = reductions.crit_ns
    lo = float(crit.min())
    hi = float(crit.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, num_bins + 1)
    counts = np.stack(
        [
            np.histogram(crit[:, j], bins=edges)[0]
            for j in range(crit.shape[1])
        ]
    )
    return edges, counts


# ----------------------------------------------------------------------


@dataclasses.dataclass
class MonteCarloResult:
    """Analytics of one priced die population (plain-Python payload).

    All grids are nested lists indexed ``[year][clock]`` (ints/floats
    only), so :func:`~repro.analysis.serialize.to_json` output is
    byte-stable -- the property the CI smoke job's ``cmp`` check and the
    ``--jobs`` reproducibility gate rest on.
    """

    spec: Dict
    design: Dict
    width: int
    skip: int
    num_dies: int
    num_patterns: int
    num_one: int
    target_yield: float
    base_period_ns: float
    years: List[float]
    clock_ns: List[float]
    yield_surface: List[List[float]]
    mean_cycles: List[List[float]]
    mean_latency_ns: List[List[float]]
    guardband_skip: List[List[int]]
    guardband_yield: List[List[float]]
    crit_mean_ns: List[float]
    crit_min_ns: List[float]
    crit_max_ns: List[float]
    hist_edges_ns: List[float]
    hist_counts: List[List[int]]

    # -- serialization protocol ----------------------------------------

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: Dict) -> "MonteCarloResult":
        names = {f.name for f in dataclasses.fields(MonteCarloResult)}
        unknown = set(data) - names
        if unknown:
            raise ConfigError(
                "MonteCarloResult payload has unknown fields: %s"
                % sorted(unknown)
            )
        return MonteCarloResult(**{name: data[name] for name in names})

    def _base_clock_index(self) -> int:
        target = self.base_period_ns
        diffs = [abs(t - target) for t in self.clock_ns]
        return diffs.index(min(diffs))

    def summary(self) -> Dict:
        """Flat JSON-ready scalars (base clock = grid point nearest the
        fresh critical path)."""
        ci = self._base_clock_index()
        first, last = 0, len(self.years) - 1
        return {
            "experiment": "mc",
            "width": self.width,
            "kind": self.design.get("kind"),
            "skip": self.skip,
            "num_dies": self.num_dies,
            "num_years": len(self.years),
            "num_clocks": len(self.clock_ns),
            "base_period_ns": self.base_period_ns,
            "yield_fresh_base": self.yield_surface[first][ci],
            "yield_final_base": self.yield_surface[last][ci],
            "latency_fresh_base_ns": self.mean_latency_ns[first][ci],
            "latency_final_base_ns": self.mean_latency_ns[last][ci],
            "guardband_skip_fresh_base": self.guardband_skip[first][ci],
            "guardband_skip_final_base": self.guardband_skip[last][ci],
            "crit_mean_fresh_ns": self.crit_mean_ns[first],
            "crit_mean_final_ns": self.crit_mean_ns[last],
        }

    def render(self) -> str:
        """Human-readable table: per year, the base-clock yield, tuned
        skip and mean latency."""
        ci = self._base_clock_index()
        lines = [
            "Monte Carlo population: %d dies, %dx%d %s multiplier, "
            "Skip-%d, base period %.4f ns"
            % (
                self.num_dies,
                self.width,
                self.width,
                self.design.get("kind", "?"),
                self.skip,
                self.base_period_ns,
            ),
            "target timing yield: %.3f" % self.target_yield,
            "%8s %12s %14s %16s %12s"
            % ("year", "yield@base", "guard skip", "latency ns", "crit ns"),
        ]
        for j, year in enumerate(self.years):
            skip = self.guardband_skip[j][ci]
            lines.append(
                "%8.1f %12.4f %14s %16.5f %12.5f"
                % (
                    year,
                    self.yield_surface[j][ci],
                    str(skip) if skip >= 0 else "unmet",
                    self.mean_latency_ns[j][ci],
                    self.crit_mean_ns[j],
                )
            )
        return "\n".join(lines)


def analyze_population(
    reductions: PopulationReductions,
    spec: MonteCarloSpec,
    base_period_ns: float,
    design: Optional[Dict] = None,
    config: SimulationConfig = DEFAULT_SIM_CONFIG,
    num_bins: int = 32,
) -> MonteCarloResult:
    """Reduce a priced population to its :class:`MonteCarloResult`."""
    red = reductions
    yield_surface = yield_for_skip(red, red.skip)
    cycles = latency_surfaces(red, config)[0].mean(axis=0)
    latency = cycles * np.asarray(red.clock_ns)[None, :]
    skip_grid, yield_grid = tune_guardband(red, spec.target_yield)
    edges, counts = critical_path_histogram(red, num_bins)
    return MonteCarloResult(
        spec=spec.fingerprint(),
        design=dict(design or {}),
        width=red.width,
        skip=red.skip,
        num_dies=red.num_dies,
        num_patterns=red.num_patterns,
        num_one=red.num_one,
        target_yield=spec.target_yield,
        base_period_ns=float(base_period_ns),
        years=[float(y) for y in red.years],
        clock_ns=[float(t) for t in red.clock_ns],
        yield_surface=yield_surface.tolist(),
        mean_cycles=cycles.tolist(),
        mean_latency_ns=latency.tolist(),
        guardband_skip=skip_grid.tolist(),
        guardband_yield=yield_grid.tolist(),
        crit_mean_ns=red.crit_ns.mean(axis=0).tolist(),
        crit_min_ns=red.crit_ns.min(axis=0).tolist(),
        crit_max_ns=red.crit_ns.max(axis=0).tolist(),
        hist_edges_ns=edges.tolist(),
        hist_counts=counts.tolist(),
    )
