"""Extension experiment ``ext_baselines``: why bypassing multipliers host
variable latency well (and Wallace/Booth do not).

The paper picks the column- and row-bypassing multipliers as hosts
because their per-pattern delay is *predictable from an operand's zero
count*.  This experiment puts the classic fast baselines (Wallace tree,
radix-4 Booth) through the same timing engine and measures, per design:

* the critical path and mean per-pattern delay;
* the delay spread (p95/p50) -- variable latency needs a fat, cheap
  majority;
* the zero-count/delay correlation -- the judging block needs the delay
  to be *predictable*, not just variable.

Expected outcome (asserted in the bench): the bypassing designs show a
strong negative correlation and a wide spread; Wallace and Booth show
weak correlation, so a zero-count judging block cannot classify their
patterns -- the architectural reason the paper builds on bypassing.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..analysis.tables import format_table
from ..arith import count_zeros
from ..timing.sta import StaticTiming
from .context import ExperimentContext, StreamDemand, default_context

PAPER_PATTERNS = 10000

#: The compared designs, as :meth:`ExperimentContext.netlist` kinds.
DESIGNS = ("am", "column", "row", "wallace", "dadda", "booth")


@dataclasses.dataclass
class BaselineStats:
    name: str
    cells: int
    critical_ns: float
    mean_delay_ns: float
    p50_ns: float
    p95_ns: float
    zero_delay_correlation: float

    @property
    def spread(self) -> float:
        """p95 / p50 -- how much a variable-latency split can win."""
        return self.p95_ns / self.p50_ns if self.p50_ns else 0.0


@dataclasses.dataclass
class BaselineComparison:
    width: int
    stats: Dict[str, BaselineStats]

    def render(self) -> str:
        rows = [
            [
                s.name,
                s.cells,
                s.critical_ns,
                s.mean_delay_ns,
                s.spread,
                s.zero_delay_correlation,
            ]
            for s in self.stats.values()
        ]
        return format_table(
            ["design", "cells", "crit ns", "mean ns", "p95/p50", "corr(z,d)"],
            rows,
        )


def demands(
    context: ExperimentContext,
    width: int = 16,
    num_patterns: Optional[int] = None,
) -> List[StreamDemand]:
    """Each fresh design of :data:`DESIGNS` on the standard stream."""
    n = num_patterns or context.patterns(PAPER_PATTERNS)
    md, mr = context.stream(width, n)
    return [
        StreamDemand(
            width,
            name,
            {"md": md, "mr": mr},
            np.ones((1, len(context.netlist(width, name).cells))),
        )
        for name in DESIGNS
    ]


def run(
    context: Optional[ExperimentContext] = None,
    width: int = 16,
    num_patterns: Optional[int] = None,
) -> BaselineComparison:
    ctx = context or default_context()
    n = num_patterns or ctx.patterns(PAPER_PATTERNS)
    md, mr = ctx.stream(width, n)
    zeros = count_zeros(md, width)

    stats: Dict[str, BaselineStats] = {}
    for name, demand in zip(DESIGNS, demands(ctx, width, n)):
        netlist = ctx.netlist(width, name)
        (result,) = ctx.price_demand(demand)
        judged = zeros if name != "row" else count_zeros(mr, width)
        usable = result.delays > 0
        correlation = float(
            np.corrcoef(judged[usable], result.delays[usable])[0, 1]
        )
        stats[name] = BaselineStats(
            name=name,
            cells=len(netlist.cells),
            critical_ns=StaticTiming(netlist, ctx.technology).critical_delay,
            mean_delay_ns=result.mean_delay,
            p50_ns=float(np.quantile(result.delays, 0.5)),
            p95_ns=float(np.quantile(result.delays, 0.95)),
            zero_delay_correlation=correlation,
        )
    return BaselineComparison(width=width, stats=stats)
