"""Extension: the ``mc`` experiment family (variation x aging MC).

Two registered views over the same priced population (shared through
the artifact store, so running both prices the dies once):

* ``mc_yield`` -- yield / latency surfaces over (year, clock period);
* ``mc_guardband`` -- per-(year, clock) smallest AHL Skip-n meeting the
  target timing yield.

Defaults are suite-friendly (200 dies x 3 years on the 8-bit column
design); ``python -m repro mc`` is the population-scale entry point.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..montecarlo.analytics import MonteCarloResult
from ..montecarlo.spec import MonteCarloSpec
from .context import ExperimentContext, StreamDemand


def _build_spec(
    num_dies, years, clock_fractions, seed, num_patterns, target_yield,
) -> MonteCarloSpec:
    overrides = {
        "num_dies": num_dies,
        "years": years,
        "clock_fractions": clock_fractions,
        "seed": seed,
        "num_patterns": num_patterns,
        "target_yield": target_yield,
    }
    return MonteCarloSpec.from_overrides(
        **{k: v for k, v in overrides.items() if v is not None}
    )


def demands(
    context: ExperimentContext,
    num_dies: Optional[int] = None,
    width: int = 8,
    kind: str = "column",
    years: Optional[Tuple[float, ...]] = None,
    clock_fractions: Optional[Tuple[float, ...]] = None,
    seed: Optional[int] = None,
    num_patterns: Optional[int] = None,
    target_yield: Optional[float] = None,
    **_,
) -> List[StreamDemand]:
    """The fresh row that sets the population's base clock period.
    The die slabs are replayed per ``die_chunk`` to bound memory, so
    they are priced by the runner, outside any prefetch."""
    from ..montecarlo.runner import base_period_demand

    spec = _build_spec(
        num_dies, years, clock_fractions, seed, num_patterns,
        target_yield,
    )
    return [base_period_demand(spec, width, kind, context)]


def run_yield(
    context: ExperimentContext,
    num_dies: Optional[int] = None,
    width: int = 8,
    kind: str = "column",
    skip: Optional[int] = None,
    years: Optional[Tuple[float, ...]] = None,
    clock_fractions: Optional[Tuple[float, ...]] = None,
    seed: Optional[int] = None,
    num_patterns: Optional[int] = None,
    target_yield: Optional[float] = None,
) -> MonteCarloResult:
    """Yield / latency surfaces of a sampled die population."""
    # Local import: the runner pulls repro.experiments (context, store,
    # scheduler), which imports this module via the registry.
    from ..montecarlo.runner import run_montecarlo

    spec = _build_spec(
        num_dies, years, clock_fractions, seed, num_patterns,
        target_yield,
    )
    return run_montecarlo(
        spec, width=width, kind=kind, skip=skip, context=context,
    )


@dataclasses.dataclass
class GuardbandReport:
    """Guard-band view of a :class:`MonteCarloResult` (same payload,
    tuning-centric rendering)."""

    result: MonteCarloResult

    def summary(self) -> Dict:
        return self.result.summary()

    def to_dict(self) -> Dict:
        return self.result.to_dict()

    def render(self) -> str:
        res = self.result
        lines = [
            "AHL Skip-n guard-band tuning: %d dies, %dx%d %s, target"
            " yield %.3f"
            % (
                res.num_dies,
                res.width,
                res.width,
                res.design.get("kind", "?"),
                res.target_yield,
            ),
            "smallest feasible skip per (year, clock period); '-' ="
            " target unmet at every legal skip",
            "%8s | %s"
            % (
                "year",
                " ".join("%7.3f" % t for t in res.clock_ns),
            ),
        ]
        for j, year in enumerate(res.years):
            cells = [
                "%7d" % s if s >= 0 else "%7s" % "-"
                for s in res.guardband_skip[j]
            ]
            lines.append("%8.1f | %s" % (year, " ".join(cells)))
        return "\n".join(lines)


def run_guardband(
    context: ExperimentContext,
    num_dies: Optional[int] = None,
    width: int = 8,
    kind: str = "column",
    skip: Optional[int] = None,
    years: Optional[Tuple[float, ...]] = None,
    clock_fractions: Optional[Tuple[float, ...]] = None,
    seed: Optional[int] = None,
    num_patterns: Optional[int] = None,
    target_yield: Optional[float] = None,
) -> GuardbandReport:
    """Per-population AHL Skip-n guard-band tuning."""
    return GuardbandReport(
        run_yield(
            context,
            num_dies=num_dies,
            width=width,
            kind=kind,
            skip=skip,
            years=years,
            clock_fractions=clock_fractions,
            seed=seed,
            num_patterns=num_patterns,
            target_yield=target_yield,
        )
    )
