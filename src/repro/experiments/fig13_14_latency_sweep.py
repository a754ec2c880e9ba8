"""Figs. 13 and 14: average latency vs cycle period for the adaptive
variable-latency designs against the AM / FLCB / FLRB baselines.

Fig. 13 (16x16): Skip-7/8/9 panels, cycle periods around 0.7-1.1 ns.
Fig. 14 (32x32): Skip-15/16/17 panels, cycle periods around 1.3-1.9 ns.

Paper headline readings this reproduces (16x16): with Skip-7 at
T = 0.9 ns the A-VLCB is ~37% faster than the FLCB and ~11% faster than
the AM; each skip number has a *preferred cycle-period range* -- too
short a clock piles up Razor penalties, too long a clock wastes slack.

This module is the workhorse for Figs. 15 and 17 as well: those figures
overlay the same latency series across skip numbers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..analysis.series import Series
from ..analysis.tables import format_table
from .context import ExperimentContext, default_context

PAPER_PATTERNS = 10000

#: Default sweeps per width: cycle periods in ns.  The paper sweeps
#: 0.7-1.0 ns (16x16) and 1.4-1.65 ns (32x32); our calibrated per-pattern
#: delay distribution is shifted slightly left of the authors', so the
#: grids are positioned over the same *relative* region -- from deep in
#: the Razor-error cliff up past the timing-waste knee (EXPERIMENTS.md
#: records the mapping).
CYCLE_GRIDS = {
    16: tuple(np.round(np.arange(0.35, 1.125, 0.05), 3)),
    32: tuple(np.round(np.arange(0.50, 1.65, 0.075), 3)),
}
SKIP_SETS = {16: (7, 8, 9), 32: (15, 16, 17)}


@dataclasses.dataclass
class LatencySweepResult:
    width: int
    #: (kind, skip) -> latency Series over the cycle grid.
    latency: Dict[Tuple[str, int], Series]
    #: (kind, skip) -> Razor error-count Series over the cycle grid.
    errors: Dict[Tuple[str, int], Series]
    #: Fixed baselines: name -> latency ns.
    baselines: Dict[str, float]
    num_patterns: int
    years: float

    def best_point(self, kind: str, skip: int) -> Tuple[float, float]:
        """(cycle, latency) minimizing average latency."""
        return self.latency[(kind, skip)].best()

    def improvement_vs(self, kind: str, skip: int, baseline: str) -> float:
        """Best-point latency reduction vs a named baseline."""
        _, best = self.best_point(kind, skip)
        return 1.0 - best / self.baselines[baseline]

    def preferred_range(self, kind: str, skip: int) -> Sequence[float]:
        """Cycle periods beating the AM baseline (the paper's notion)."""
        return self.latency[(kind, skip)].crossings_below(
            self.baselines["am"]
        )

    def render(self) -> str:
        rows = []
        for (kind, skip), series in sorted(self.latency.items()):
            cycle, best = series.best()
            base = "flcb" if kind == "column" else "flrb"
            rows.append(
                [
                    "%s skip%d" % (kind, skip),
                    cycle,
                    best,
                    self.improvement_vs(kind, skip, base),
                    self.improvement_vs(kind, skip, "am"),
                ]
            )
        table = format_table(
            ["design", "best T ns", "latency ns", "vs fixed", "vs AM"], rows
        )
        base_line = "baselines: " + "  ".join(
            "%s=%.3f" % (k, v) for k, v in sorted(self.baselines.items())
        )
        return table + "\n" + base_line


def run(
    context: Optional[ExperimentContext] = None,
    width: int = 16,
    skips: Optional[Sequence[int]] = None,
    cycles: Optional[Sequence[float]] = None,
    num_patterns: Optional[int] = None,
    years: float = 0.0,
    adaptive: bool = True,
    kinds: Sequence[str] = ("column", "row"),
) -> LatencySweepResult:
    ctx = context or default_context()
    n = num_patterns or ctx.patterns(PAPER_PATTERNS)
    skips = tuple(skips or SKIP_SETS[width])
    cycles = tuple(cycles or CYCLE_GRIDS[width])
    md, mr = ctx.stream(width, n)

    baselines = {
        "am": ctx.fixed_design(width, "am").latency_ns(years),
        "flcb": ctx.fixed_design(width, "column").latency_ns(years),
        "flrb": ctx.fixed_design(width, "row").latency_ns(years),
    }

    latency: Dict[Tuple[str, int], Series] = {}
    errors: Dict[Tuple[str, int], Series] = {}
    for kind in kinds:
        stream = ctx.stream_result(width, kind, years, n)
        for skip in skips:
            lat = []
            err = []
            for cycle in cycles:
                design = ctx.variable_design(
                    width, kind, skip, cycle, adaptive=adaptive
                )
                report = design.run_patterns(
                    md, mr, years=years, stream=stream
                ).report
                lat.append(report.average_latency_ns)
                err.append(report.error_count)
            label = "%s-%s skip%d" % (
                "A" if adaptive else "T",
                "VLCB" if kind == "column" else "VLRB",
                skip,
            )
            latency[(kind, skip)] = Series.build(label, cycles, lat)
            errors[(kind, skip)] = Series.build(label + " errors", cycles, err)
    return LatencySweepResult(
        width=width,
        latency=latency,
        errors=errors,
        baselines=baselines,
        num_patterns=n,
        years=years,
    )


def run_fig13(context: Optional[ExperimentContext] = None, **kw):
    return run(context, width=16, **kw)


def run_fig14(context: Optional[ExperimentContext] = None, **kw):
    return run(context, width=32, **kw)
