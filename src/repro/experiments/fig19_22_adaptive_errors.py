"""Figs. 19-22: Razor error counts, traditional vs adaptive variable
latency on aged silicon.

Fig. 19: 16x16 column.  Fig. 20: 32x32 column.
Fig. 21: 16x16 row.     Fig. 22: 32x32 row.

Paper reading: the adaptive design's error count is consistently below
the traditional design's, because once the aging indicator trips, the
stricter Skip-(n+1) block stops classifying marginal patterns as
one-cycle.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..analysis.series import Series
from ..analysis.tables import format_table
from .context import ExperimentContext, default_context
from .fig13_14_latency_sweep import CYCLE_GRIDS, PAPER_PATTERNS


@dataclasses.dataclass
class AdaptiveErrorResult:
    width: int
    kind: str
    years: float
    traditional: Series
    adaptive: Series

    def adaptive_never_worse(self, slack: int = 0) -> bool:
        """Adaptive error count <= traditional at every cycle period."""
        return all(
            a <= t + slack
            for a, t in zip(self.adaptive.y, self.traditional.y)
        )

    def render(self) -> str:
        rows = [
            [cycle, int(t), int(a)]
            for cycle, t, a in zip(
                self.traditional.x, self.traditional.y, self.adaptive.y
            )
        ]
        return format_table(["cycle ns", "T-VL errors", "A-VL errors"], rows)


def run(
    context: Optional[ExperimentContext] = None,
    width: int = 16,
    kind: str = "column",
    years: float = 7.0,
    skip: Optional[int] = None,
    cycles: Optional[Sequence[float]] = None,
    num_patterns: Optional[int] = None,
) -> AdaptiveErrorResult:
    ctx = context or default_context()
    n = num_patterns or ctx.patterns(PAPER_PATTERNS)
    if skip is None:
        skip = width // 2 - 1
    cycles = tuple(cycles or CYCLE_GRIDS[width])
    md, mr = ctx.stream(width, n)
    stream = ctx.stream_result(width, kind, years, n)

    counts = {}
    for adaptive in (False, True):
        series = []
        for cycle in cycles:
            design = ctx.variable_design(
                width, kind, skip, cycle, adaptive=adaptive
            )
            report = design.run_patterns(md, mr, years=years, stream=stream)
            series.append(report.report.error_count)
        counts[adaptive] = Series.build(
            "%s skip%d" % ("A-VL" if adaptive else "T-VL", skip),
            cycles,
            series,
        )
    return AdaptiveErrorResult(
        width=width,
        kind=kind,
        years=years,
        traditional=counts[False],
        adaptive=counts[True],
    )


def run_fig19(context=None, **kw):
    return run(context, width=16, kind="column", **kw)


def run_fig20(context=None, **kw):
    return run(context, width=32, kind="column", **kw)


def run_fig21(context=None, **kw):
    return run(context, width=16, kind="row", **kw)


def run_fig22(context=None, **kw):
    return run(context, width=32, kind="row", **kw)
