"""Typed experiment registry and runner.

Every experiment is registered as an :class:`ExperimentSpec` -- a typed
record (id, title, runner, default overrides, tags) instead of a bare
``Dict[str, Callable]``.  The spec normalizes the historical
``run`` / ``run_fig13`` / ``run_table1`` naming split behind one
surface: callers always go through :func:`run_experiment` (or
``spec.run``), and :func:`list_experiments` filters by tag.

Override names are validated against the runner's signature *before*
the run starts, so a typo like ``num_pattern=500`` raises
:class:`~repro.errors.ConfigError` immediately (with a did-you-mean
suggestion) instead of failing minutes into a sweep -- same for unknown
experiment ids.
"""

from __future__ import annotations

import dataclasses
import difflib
from functools import partial
import inspect
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError
from .context import ExperimentContext, StreamDemand, default_context
from .context import standard_demands
from . import (
    _testing,
    claims,
    ext_baselines,
    ext_em,
    ext_faults,
    ext_mc,
    ext_vladder,
    ext_workloads,
    fig05_delay_distribution,
    fig06_zeros_vs_delay,
    fig07_aging_trend,
    fig09_10_zero_distribution,
    fig13_14_latency_sweep,
    fig15_18_skip_comparison,
    fig19_22_adaptive_errors,
    fig23_24_adaptive_latency,
    fig25_area,
    fig26_27_lifetime,
    tables_one_cycle_ratio,
)

#: Tags with registry-wide meaning: ``paper`` experiments reproduce a
#: figure/table of the source paper, ``extension`` ones go beyond it.
KNOWN_TAGS = ("paper", "extension", "faults", "aging", "workloads", "mc")


@dataclasses.dataclass(frozen=True)
class Resources:
    """Declared shared-state needs of one experiment.

    What used to be implicit in each experiment module -- which
    ``(width, kind)`` designs it characterizes, which netlists it merely
    builds, which stream rows it prices -- becomes an explicit
    declaration on the spec, so the suite scheduler
    (:mod:`repro.experiments.scheduler`) can group the expensive shared
    work into stages that run before independent experiments fan out
    over worker processes: a warm-up that characterizes each design
    exactly once, then a prefetch that prices each value plane's
    declared rows in one replay.

    Attributes:
        designs: ``(width, kind)`` pairs whose characterized
            :class:`~repro.aging.AgedCircuitFactory` the experiment
            touches (the expensive resource: implies the netlist too).
        netlists: ``(width, kind)`` pairs needing only the generated
            netlist (e.g. area accounting).
        demands: ``demands(context, **defaults)`` -> the
            :class:`~repro.experiments.context.StreamDemand` s the
            experiment prices through ``ExperimentContext.price_demand``
            or ``stream_results`` (None: it prices none).  It takes the
            runner's keyword arguments; ``ExperimentContext.demands``
            memoizes it, so the runner reads the same objects.
    """

    designs: Tuple[Tuple[int, str], ...] = ()
    netlists: Tuple[Tuple[int, str], ...] = ()
    demands: Optional[Callable[..., Sequence[StreamDemand]]] = None

    def __post_init__(self):
        for width, kind in tuple(self.designs) + tuple(self.netlists):
            if not (isinstance(width, int) and width > 0):
                raise ConfigError(
                    "resource width must be a positive int, got %r"
                    % (width,)
                )
            if not isinstance(kind, str):
                raise ConfigError(
                    "resource kind must be a string, got %r" % (kind,)
                )

    def all_netlists(self) -> Tuple[Tuple[int, str], ...]:
        """Every netlist implied (designs' plus netlist-only), deduped
        in declaration order."""
        seen = []
        for pair in tuple(self.designs) + tuple(self.netlists):
            if pair not in seen:
                seen.append(pair)
        return tuple(seen)


def _designs(*pairs) -> Tuple[Tuple[int, str], ...]:
    return tuple((int(w), str(k)) for w, k in pairs)


def _all_kinds(width: int) -> Tuple[Tuple[int, str], ...]:
    return _designs(*((width, kind) for kind in ("am", "column", "row")))


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment.

    Attributes:
        id: Registry key (matches DESIGN.md section 4).
        title: One-line human description (shown by the CLI listing).
        runner: ``runner(context, **overrides) -> result``; the result
            object exposes ``render()`` (and usually the
            ``summary()``/``to_dict()`` protocol of
            :mod:`repro.analysis.serialize`).
        defaults: Overrides applied under the caller's (callers win).
        tags: Free-form labels; ``paper`` / ``extension`` at minimum.
    """

    id: str
    title: str
    runner: Callable
    defaults: Mapping = dataclasses.field(default_factory=dict)
    tags: Tuple[str, ...] = ()
    #: Declared shared-state needs (designs / netlists / stream
    #: demands) the suite scheduler warms up, prefetches and shares
    #: across workers.
    resources: Resources = dataclasses.field(default_factory=Resources)

    def __post_init__(self):
        if not self.id:
            raise ConfigError("experiment id must be non-empty")
        if not callable(self.runner):
            raise ConfigError(
                "experiment %r runner must be callable" % self.id
            )

    def parameters(self) -> Dict[str, inspect.Parameter]:
        """The runner's override parameters (the context arg excluded)."""
        params = dict(inspect.signature(self.runner).parameters)
        params.pop("context", None)
        return params

    def accepts_any_keyword(self) -> bool:
        return any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in self.parameters().values()
        )

    def validate_overrides(self, overrides: Mapping) -> None:
        """Reject override names the runner does not accept.

        Without this, a misspelled override either exploded deep inside
        the runner (late ``TypeError``) or -- for runners taking
        ``**kwargs`` -- was silently swallowed.
        """
        if self.accepts_any_keyword():
            return
        params = self.parameters()
        known = {
            name
            for name, p in params.items()
            if p.kind
            in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        }
        for name in overrides:
            if name not in known:
                raise ConfigError(
                    "experiment %r does not accept override %r%s "
                    "(accepted: %s)"
                    % (
                        self.id,
                        name,
                        _suggestion(name, known),
                        ", ".join(sorted(known)) or "none",
                    )
                )

    def demands(self, context: ExperimentContext) -> List[StreamDemand]:
        """The stream rows the runner prices under :attr:`defaults`,
        as declared by :attr:`Resources.demands` through
        :meth:`ExperimentContext.demands`."""
        if self.resources.demands is None:
            return []
        return context.demands(self.resources.demands, **self.defaults)

    def run(
        self,
        context: Optional[ExperimentContext] = None,
        **overrides,
    ):
        """Validate ``overrides``, merge :attr:`defaults` under them,
        prefetch the declared demands (in a suite, already priced) and
        invoke the runner."""
        merged = dict(self.defaults)
        merged.update(overrides)
        self.validate_overrides(merged)
        context = context or default_context()
        if self.resources.demands is not None:
            declare = self.resources.demands
            context.prefetch(context.demands(declare, **merged))
        return self.runner(context, **merged)


def _suggestion(name: str, known) -> str:
    close = difflib.get_close_matches(name, sorted(known), n=1)
    return " -- did you mean %r?" % close[0] if close else ""


def _spec(
    id: str,
    title: str,
    runner: Callable,
    tags: Sequence[str],
    resources: Optional[Resources] = None,
    **defaults,
) -> ExperimentSpec:
    return ExperimentSpec(
        id=id,
        title=title,
        runner=runner,
        defaults=defaults,
        tags=tuple(tags),
        resources=resources or Resources(),
    )


#: Experiment id -> :class:`ExperimentSpec`.  Ids match DESIGN.md
#: section 4; iterate with :func:`list_experiments`.
REGISTRY: Dict[str, ExperimentSpec] = {
    spec.id: spec
    for spec in (
        _spec("fig05", "Per-pattern delay distributions (Fig. 5)",
              fig05_delay_distribution.run, ("paper",),
              Resources(designs=_all_kinds(16), demands=partial(
                  standard_demands, width=16,
                  kinds=fig05_delay_distribution.KINDS,
                  paper_patterns=fig05_delay_distribution.PAPER_PATTERNS))),
        _spec("fig06", "Zero count vs mean delay (Fig. 6)",
              fig06_zeros_vs_delay.run, ("paper",),
              Resources(designs=_designs((16, "column")),
                        demands=fig06_zeros_vs_delay.demands)),
        _spec("fig07", "BTI aging trend of the critical path (Fig. 7)",
              fig07_aging_trend.run, ("paper", "aging"),
              Resources(designs=_designs((16, "column"), (16, "row")))),
        _spec("fig09_10", "Operand zero-count distributions (Figs. 9-10)",
              fig09_10_zero_distribution.run, ("paper",)),
        _spec("tab1", "One-cycle ratios, 16x16 (Table I)",
              tables_one_cycle_ratio.run_table1, ("paper",)),
        _spec("tab2", "One-cycle ratios, 32x32 (Table II)",
              tables_one_cycle_ratio.run_table2, ("paper",)),
        _spec("fig13", "Latency vs cycle period, 16x16 (Fig. 13)",
              fig13_14_latency_sweep.run_fig13, ("paper",),
              Resources(designs=_all_kinds(16),
                        demands=partial(standard_demands, width=16))),
        _spec("fig14", "Latency vs cycle period, 32x32 (Fig. 14)",
              fig13_14_latency_sweep.run_fig14, ("paper",),
              Resources(designs=_all_kinds(32),
                        demands=partial(standard_demands, width=32))),
        _spec("fig15", "Skip comparison: 16x16 latency (Fig. 15)",
              fig15_18_skip_comparison.run_fig15, ("paper",),
              Resources(designs=_all_kinds(16),
                        demands=partial(standard_demands, width=16,
                                        kinds=("column",)))),
        _spec("fig16", "Skip comparison: 16x16 errors (Fig. 16)",
              fig15_18_skip_comparison.run_fig16, ("paper",),
              Resources(designs=_all_kinds(16),
                        demands=partial(standard_demands, width=16,
                                        kinds=("column",)))),
        _spec("fig17", "Skip comparison: 32x32 latency (Fig. 17)",
              fig15_18_skip_comparison.run_fig17, ("paper",),
              Resources(designs=_all_kinds(32),
                        demands=partial(standard_demands, width=32,
                                        kinds=("column",)))),
        _spec("fig18", "Skip comparison: 32x32 errors (Fig. 18)",
              fig15_18_skip_comparison.run_fig18, ("paper",),
              Resources(designs=_all_kinds(32),
                        demands=partial(standard_demands, width=32,
                                        kinds=("column",)))),
        _spec("fig19", "Adaptive vs traditional errors, 16 CB (Fig. 19)",
              fig19_22_adaptive_errors.run_fig19, ("paper", "aging"),
              Resources(designs=_designs((16, "column")),
                        demands=partial(standard_demands, width=16,
                                        kinds=("column",), years=7.0))),
        _spec("fig20", "Adaptive vs traditional errors, 32 CB (Fig. 20)",
              fig19_22_adaptive_errors.run_fig20, ("paper", "aging"),
              Resources(designs=_designs((32, "column")),
                        demands=partial(standard_demands, width=32,
                                        kinds=("column",), years=7.0))),
        _spec("fig21", "Adaptive vs traditional errors, 16 RB (Fig. 21)",
              fig19_22_adaptive_errors.run_fig21, ("paper", "aging"),
              Resources(designs=_designs((16, "row")),
                        demands=partial(standard_demands, width=16,
                                        kinds=("row",), years=7.0))),
        _spec("fig22", "Adaptive vs traditional errors, 32 RB (Fig. 22)",
              fig19_22_adaptive_errors.run_fig22, ("paper", "aging"),
              Resources(designs=_designs((32, "row")),
                        demands=partial(standard_demands, width=32,
                                        kinds=("row",), years=7.0))),
        _spec("fig23", "Adaptive vs traditional latency, 16x16 (Fig. 23)",
              fig23_24_adaptive_latency.run_fig23, ("paper", "aging"),
              Resources(designs=_all_kinds(16),
                        demands=partial(standard_demands, width=16,
                                        years=7.0))),
        _spec("fig24", "Adaptive vs traditional latency, 32x32 (Fig. 24)",
              fig23_24_adaptive_latency.run_fig24, ("paper", "aging"),
              Resources(designs=_all_kinds(32),
                        demands=partial(standard_demands, width=32,
                                        years=7.0))),
        _spec("fig25", "Area accounting (Fig. 25)",
              fig25_area.run, ("paper",),
              Resources(netlists=_all_kinds(16) + _all_kinds(32))),
        # Figs. 26/27 read the AM from STA and the power pass: no row.
        _spec("fig26", "Lifetime latency under aging (Fig. 26)",
              fig26_27_lifetime.run_fig26, ("paper", "aging"),
              Resources(designs=_all_kinds(16), demands=partial(
                  standard_demands, width=16,
                  years=fig26_27_lifetime.YEARS))),
        _spec("fig27", "Lifetime power under aging (Fig. 27)",
              fig26_27_lifetime.run_fig27, ("paper", "aging"),
              Resources(designs=_all_kinds(32), demands=partial(
                  standard_demands, width=32,
                  years=fig26_27_lifetime.YEARS))),
        _spec("claims", "Headline-claim checklist over all figures",
              claims.run, ("paper",),
              Resources(designs=_all_kinds(16), netlists=_all_kinds(32),
                        demands=claims.demands)),
        # Extensions beyond the paper's figures (Section V discussion,
        # related-work baselines, motivating workloads).
        _spec("ext_em", "Electromigration-aware aging",
              ext_em.run, ("extension", "aging"),
              Resources(designs=_designs((16, "column"), (16, "row")),
                        demands=ext_em.demands)),
        _spec("ext_baselines", "Wallace/Dadda/Booth baselines",
              ext_baselines.run, ("extension",),
              Resources(designs=_all_kinds(16),
                        netlists=_designs((16, "wallace"), (16, "dadda"),
                                          (16, "booth")),
                        demands=ext_baselines.demands)),
        _spec("ext_faults", "Fault-injection coverage + recovery",
              ext_faults.run, ("extension", "faults"),
              Resources(designs=_designs((8, "column")),
                        demands=ext_faults.demands)),
        _spec("ext_vladder", "Aging-aware variable-latency adder",
              ext_vladder.run, ("extension",)),
        _spec("mc_yield",
              "Variation x aging Monte Carlo: yield/latency surfaces",
              ext_mc.run_yield, ("extension", "mc", "aging"),
              Resources(designs=_designs((8, "column")),
                        demands=ext_mc.demands),
              num_dies=200, years=(0.0, 5.0, 10.0)),
        _spec("mc_guardband",
              "Variation x aging Monte Carlo: Skip-n guard-band tuning",
              ext_mc.run_guardband, ("extension", "mc", "aging"),
              Resources(designs=_designs((8, "column")),
                        demands=ext_mc.demands),
              num_dies=200, years=(0.0, 5.0, 10.0)),
        _spec("ext_workloads", "DSP / Markov workload study",
              ext_workloads.run, ("extension", "workloads"),
              Resources(designs=_designs((16, "column")),
                        demands=ext_workloads.demands)),
    )
}


# Fault-injection specs for scheduler degradation tests.  Registered
# only when REPRO_TEST_EXPERIMENTS is set; the environment propagates
# to pool workers, so the injected ids resolve there too.
if _testing.testing_enabled():
    _testing.register_test_experiments(REGISTRY)


def get_experiment(name: str) -> ExperimentSpec:
    """Look up an :class:`ExperimentSpec` by id.

    Unknown ids raise :class:`~repro.errors.ConfigError` with a
    nearest-name suggestion (``ext_fault`` -> "did you mean
    'ext_faults'?").
    """
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigError(
            "unknown experiment %r%s (known: %s)"
            % (name, _suggestion(str(name), REGISTRY), sorted(REGISTRY))
        ) from None


def list_experiments(tag: Optional[str] = None) -> List[ExperimentSpec]:
    """All registered specs (id order), optionally filtered by tag."""
    specs = [REGISTRY[name] for name in sorted(REGISTRY)]
    if tag is None:
        return specs
    return [spec for spec in specs if tag in spec.tags]


def run_experiment(
    name: str,
    context: Optional[ExperimentContext] = None,
    **overrides,
):
    """Run one experiment and return its result object.

    ``overrides`` are validated against the runner's signature before
    anything executes; unknown names raise
    :class:`~repro.errors.ConfigError`.
    """
    return get_experiment(name).run(context, **overrides)
