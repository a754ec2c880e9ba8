"""Fig. 6: delay distribution of the 16x16 column-bypassing multiplier
under three fixed multiplicand zero counts (6, 8 and 10), 3 000 random
patterns each.

Paper reading: as the number of zeros in the multiplicand grows, the
distribution shifts left and the average delay falls -- the property the
AHL judging blocks exploit.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..analysis.histogram import Histogram
from ..analysis.tables import format_table
from ..workloads.generators import operands_with_zero_count, uniform_operands
from .context import ExperimentContext, StreamDemand, default_context

PAPER_PATTERNS = 3000
ZERO_COUNTS = (6, 8, 10)


@dataclasses.dataclass
class Fig06Result:
    histograms: Dict[int, Histogram]
    mean_delay_ns: Dict[int, float]
    num_patterns: int

    @property
    def monotone_decreasing(self) -> bool:
        """The paper's claim: more zeros => lower average delay."""
        means = [self.mean_delay_ns[z] for z in sorted(self.mean_delay_ns)]
        return all(a > b for a, b in zip(means, means[1:]))

    def render(self) -> str:
        rows = [
            [z, self.mean_delay_ns[z], self.histograms[z].mode_bin()[0]]
            for z in sorted(self.mean_delay_ns)
        ]
        table = format_table(["zeros in md", "mean ns", "mode bin lo"], rows)
        return table + "\nleft-shift with more zeros: %s" % (
            self.monotone_decreasing,
        )


def demands(
    context: ExperimentContext,
    num_patterns: Optional[int] = None,
    width: int = 16,
) -> List[StreamDemand]:
    """The fresh column design on one stream per zero count (in
    :data:`ZERO_COUNTS` order)."""
    n = num_patterns or context.patterns(PAPER_PATTERNS)
    fresh = np.ones((1, len(context.netlist(width, "column").cells)))
    out = []
    for zeros in ZERO_COUNTS:
        md = operands_with_zero_count(width, n, zeros, seed=100 + zeros)
        _, mr = uniform_operands(width, n, seed=200 + zeros)
        out.append(StreamDemand(width, "column", {"md": md, "mr": mr}, fresh))
    return out


def run(
    context: Optional[ExperimentContext] = None,
    num_patterns: Optional[int] = None,
    width: int = 16,
) -> Fig06Result:
    ctx = context or default_context()
    n = num_patterns or ctx.patterns(PAPER_PATTERNS)
    histograms = {}
    means = {}
    for zeros, demand in zip(ZERO_COUNTS, demands(ctx, n, width)):
        (result,) = ctx.price_demand(demand)
        histograms[zeros] = Histogram.from_samples(
            result.delays, num_bins=30, name="%d zeros" % zeros
        )
        means[zeros] = result.mean_delay
    return Fig06Result(histograms=histograms, mean_delay_ns=means, num_patterns=n)
