"""Fig. 5: path-delay distribution of the 16x16 AM, column-bypassing and
row-bypassing multipliers over 65 536 random patterns.

Paper readings this reproduces:

* maximum path delay: 1.32 ns (AM), 1.88 ns (CB), 1.82 ns (RB) -- in our
  calibration these are the static critical paths;
* more than 98% of AM paths are faster than 0.7 ns;
* more than 93% (CB) / 98% (RB) of paths are faster than 0.9 ns.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..analysis.histogram import Histogram
from ..analysis.tables import format_table
from ..timing.sta import StaticTiming
from .context import ExperimentContext, StreamDemand, default_context

PAPER_PATTERNS = 65536
KINDS = ("am", "column", "row")

#: Paper-reported quantile statements: kind -> (threshold ns, fraction).
PAPER_FRACTIONS = {"am": (0.7, 0.98), "column": (0.9, 0.93), "row": (0.9, 0.98)}
PAPER_MAX_DELAY = {"am": 1.32, "column": 1.88, "row": 1.82}


@dataclasses.dataclass
class Fig05Result:
    histograms: Dict[str, Histogram]
    critical_ns: Dict[str, float]
    observed_max_ns: Dict[str, float]
    fraction_below: Dict[str, float]
    num_patterns: int

    def render(self) -> str:
        rows = []
        for kind in KINDS:
            threshold, paper_fraction = PAPER_FRACTIONS[kind]
            rows.append(
                [
                    kind,
                    self.critical_ns[kind],
                    PAPER_MAX_DELAY[kind],
                    self.observed_max_ns[kind],
                    "P(d<%.1f)" % threshold,
                    self.fraction_below[kind],
                    paper_fraction,
                ]
            )
        return format_table(
            [
                "multiplier",
                "crit ns",
                "paper max",
                "obs max",
                "quantile",
                "measured",
                "paper",
            ],
            rows,
        )


def demands(
    context: ExperimentContext, num_patterns: Optional[int] = None
) -> List[StreamDemand]:
    """The fresh standard stream of each 16x16 design."""
    n = num_patterns or context.patterns(PAPER_PATTERNS)
    return [context.standard_demand(16, kind, [0.0], n) for kind in KINDS]


def run(
    context: Optional[ExperimentContext] = None,
    num_patterns: Optional[int] = None,
) -> Fig05Result:
    ctx = context or default_context()
    n = num_patterns or ctx.patterns(PAPER_PATTERNS)
    histograms = {}
    critical = {}
    observed = {}
    fractions = {}
    for kind in KINDS:
        result = ctx.stream_result(16, kind, years=0.0, num_patterns=n)
        histograms[kind] = Histogram.from_samples(
            result.delays, num_bins=40, name="16x16 %s" % kind
        )
        critical[kind] = StaticTiming(
            ctx.netlist(16, kind), ctx.technology
        ).critical_delay
        observed[kind] = result.max_delay
        threshold, _ = PAPER_FRACTIONS[kind]
        fractions[kind] = float((result.delays < threshold).mean())
    return Fig05Result(
        histograms=histograms,
        critical_ns=critical,
        observed_max_ns=observed,
        fraction_below=fractions,
        num_patterns=n,
    )
