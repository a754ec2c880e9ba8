"""Experiment harness: one module per paper table/figure.

Every experiment is a function taking an :class:`ExperimentContext`
(which caches netlists, stress profiles and circuit simulations so a
full reproduction run stays tractable) and returning a plain result
dataclass with a ``render()`` method that prints the same rows/series
the paper reports.

Run everything from the command line::

    python -m repro experiments            # list experiments
    python -m repro experiments fig05      # one experiment
    python -m repro experiments all        # the whole evaluation

See DESIGN.md section 4 for the experiment-to-figure index and
EXPERIMENTS.md for recorded paper-vs-measured values.
"""

from .context import ExperimentContext
from .registry import (
    REGISTRY,
    ExperimentSpec,
    Resources,
    get_experiment,
    list_experiments,
    run_experiment,
)
from .scheduler import SuiteEntry, SuitePlan, SuiteResult, plan_suite, run_suite
from .store import ArtifactStore
from .sweep import SweepSpec, Variant, VariantSweep, enumerate_variants

__all__ = [
    "ArtifactStore",
    "ExperimentContext",
    "ExperimentSpec",
    "REGISTRY",
    "Resources",
    "SuiteEntry",
    "SuitePlan",
    "SuiteResult",
    "SweepSpec",
    "Variant",
    "VariantSweep",
    "enumerate_variants",
    "get_experiment",
    "list_experiments",
    "plan_suite",
    "run_experiment",
    "run_suite",
]
