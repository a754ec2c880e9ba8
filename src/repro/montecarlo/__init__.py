"""Correlated process-variation x aging Monte Carlo at population scale.

The project's only process-variation model: correlated global, spatial and
random Vth shifts co-modeled with aging (Heidary & Joardar's premise, see
PAPERS.md):

* :mod:`~repro.montecarlo.spec` -- the frozen, validated
  :class:`MonteCarloSpec` every sampled population is keyed on;
* :mod:`~repro.montecarlo.sampler` -- correlated per-cell Vth sampling
  (global + spatial + random), one RNG substream per die;
* :mod:`~repro.montecarlo.population` -- the die-population compiler
  batching dies x years through :class:`~repro.timing.replay
  .ArrivalReplay` and reducing to compact per-die statistics;
* :mod:`~repro.montecarlo.analytics` -- yield/latency surfaces,
  critical-path histograms and AHL Skip-n guard-band tuning;
* :mod:`~repro.montecarlo.runner` -- the sharded, store-backed driver
  behind ``python -m repro mc`` and the ``mc_*`` experiments.
"""

from .analytics import (
    MonteCarloResult,
    analyze_population,
    critical_path_histogram,
    latency_surfaces,
    suffix_max,
    tune_guardband,
    yield_for_skip,
)
from .population import (
    PopulationReductions,
    price_population,
    price_population_naive,
)
from .runner import population_key, run_montecarlo
from .sampler import CorrelatedVthSampler
from .spec import MonteCarloSpec

__all__ = [
    "CorrelatedVthSampler",
    "MonteCarloResult",
    "MonteCarloSpec",
    "PopulationReductions",
    "analyze_population",
    "critical_path_histogram",
    "latency_surfaces",
    "population_key",
    "price_population",
    "price_population_naive",
    "run_montecarlo",
    "suffix_max",
    "tune_guardband",
    "yield_for_skip",
]
