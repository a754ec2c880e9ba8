"""Extension experiment ``ext_vladder``: the VL-Adder lineage ([20]-[21])
upgraded with the paper's adaptive hold logic.

Compares, over a seven-year lifetime:

* the fixed-latency RCA (clock = aged critical path),
* the traditional variable-latency adder (single hold criterion, the
  Chen et al. design the introduction cites),
* the adaptive variable-latency adder (this paper's AHL idea applied to
  the adder's propagate-window hold logic).

Two operating points are evaluated, mirroring the multiplier figures:

* a *safe* clock (5/8 of the fresh critical path, the Fig. 4
  proportion) for the lifetime-latency claim -- the adaptive adder's
  latency stays nearly flat while the fixed adder tracks the ~13%
  critical-path drift;
* a *tight* clock (1/3 of the critical path, inside the error cliff)
  for the adaptation claim -- aged, the adaptive adder switches to the
  strict hold and ends with fewer Razor errors than the traditional
  single-criterion design.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np

from ..analysis.series import Series
from ..analysis.tables import format_table
from ..core.adder_architecture import AgingAwareAdder
from ..timing.sta import StaticTiming
from .context import ExperimentContext, default_context

YEARS = (0.0, 2.0, 5.0, 7.0)
PAPER_PATTERNS = 10000


@dataclasses.dataclass
class VlAdderResult:
    width: int
    safe_cycle_ns: float
    tight_cycle_ns: float
    latency: Dict[str, Series]
    errors: Dict[str, Series]
    #: Tight-clock error counts per design over the years.
    tight_errors: Dict[str, Series]

    def growth(self, design: str) -> float:
        series = self.latency[design]
        return float(series.y[-1] / series.y[0] - 1.0)

    def adaptive_never_worse(self) -> bool:
        return bool(
            np.all(
                self.tight_errors["a-vl"].y <= self.tight_errors["t-vl"].y
            )
        )

    def render(self) -> str:
        rows = []
        for design in sorted(self.latency):
            series = self.latency[design]
            rows.append(
                [
                    design,
                    series.y[0],
                    series.y[-1],
                    self.growth(design),
                ]
            )
        table = format_table(
            ["design", "lat y0", "lat y-last", "growth"], rows
        )
        tight = format_table(
            ["design", "tight-clock errors y0", "y-last"],
            [
                [d, int(self.tight_errors[d].y[0]),
                 int(self.tight_errors[d].y[-1])]
                for d in ("t-vl", "a-vl")
            ],
        )
        return table + "\n\n" + tight


def run(
    context: Optional[ExperimentContext] = None,
    width: int = 16,
    years: Sequence[float] = YEARS,
    num_patterns: Optional[int] = None,
    cycle_ns: Optional[float] = None,
) -> VlAdderResult:
    ctx = context or default_context()
    n = num_patterns or ctx.patterns(PAPER_PATTERNS)
    adaptive = AgingAwareAdder.build(
        width,
        cycle_ns=cycle_ns,
        technology=ctx.technology,
        config=ctx.config,
        characterize_patterns=ctx.characterize_patterns,
    )
    traditional = dataclasses.replace(adaptive, adaptive=False, name="")
    tight_cycle = adaptive.critical_path_ns() / 3.0

    rng = np.random.default_rng(41)
    high = 1 << width
    a = rng.integers(0, high, n, dtype=np.uint64)
    b = rng.integers(0, high, n, dtype=np.uint64)

    latency: Dict[str, list] = {"fixed": [], "t-vl": [], "a-vl": []}
    errors: Dict[str, list] = {"fixed": [], "t-vl": [], "a-vl": []}
    tight: Dict[str, list] = {"t-vl": [], "a-vl": []}
    # The stream depends on the age only, not on the design or clock:
    # one batched replay prices every year, shared by all four runs.
    streams = adaptive.factory.stream_results(
        years, {"a": a, "b": b}, collect_bit_arrivals=True
    )
    for year, stream in zip(years, streams):
        scale = (
            None if year == 0 else adaptive.factory.delay_scale(year)
        )
        latency["fixed"].append(
            StaticTiming(
                adaptive.netlist, ctx.technology, scale
            ).critical_delay
        )
        errors["fixed"].append(0)
        for name, design in (("t-vl", traditional), ("a-vl", adaptive)):
            report = design.run_patterns(
                a, b, years=year, stream=stream
            ).report
            latency[name].append(report.average_latency_ns)
            errors[name].append(report.error_count)
            tight_report = design.with_cycle(tight_cycle).run_patterns(
                a, b, years=year, stream=stream
            ).report
            tight[name].append(tight_report.error_count)

    return VlAdderResult(
        width=width,
        safe_cycle_ns=adaptive.cycle_ns,
        tight_cycle_ns=tight_cycle,
        latency={
            k: Series.build(k, list(years), v) for k, v in latency.items()
        },
        errors={
            k: Series.build(k, list(years), v) for k, v in errors.items()
        },
        tight_errors={
            k: Series.build(k, list(years), v) for k, v in tight.items()
        },
    )
