"""Figs. 26 and 27: normalized latency, power and EDP over seven years.

Fig. 26 (16x16): the A-VLCB/A-VLRB run at T = 1.2 ns with Skip-7 -- a
relaxed point where (fresh) no timing violations occur.  Fig. 27
(32x32): T = 2.3 ns with Skip-15.

Paper readings this reproduces:

* fixed designs (AM/FLCB/FLRB) slow down ~15% over 7 years, the
  adaptive variable-latency designs only a few percent;
* the AM crosses above the adaptive designs' latency after ~2 years;
* power *decreases* year over year (leakage falls as Vth rises) and the
  AM burns the most; the fixed bypassing designs burn less than their
  variable-latency versions (Razor + AHL overhead);
* the adaptive designs end with the lowest average EDP.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

from ..analysis.series import Series
from ..analysis.tables import format_table
from ..timing.power import power_report
from .context import ExperimentContext, default_context

YEARS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
PAPER_PATTERNS = 10000
#: Operating points.  The paper clocks the 16x16 designs at 1.2 ns
#: against its 1.88 ns FLCB critical path (ratio 0.638) and the 32x32
#: designs at 2.3 ns against 3.88 ns (ratio 0.593); our calibrated
#: critical paths are slightly shorter, so the same *relative* points
#: land at 1.17 ns and 2.26 ns.
SETTINGS = {
    16: {"cycle_ns": 1.17, "skip": 7},
    32: {"cycle_ns": 2.26, "skip": 15},
}
DESIGNS = ("am", "flcb", "flrb", "a-vlcb", "a-vlrb")


@dataclasses.dataclass
class LifetimeResult:
    width: int
    years: Sequence[float]
    latency_ns: Dict[str, Series]
    power_w: Dict[str, Series]
    edp: Dict[str, Series]

    def normalized(self, table: Dict[str, Series], baseline: str = "am"):
        base = table[baseline].y[0]
        return {
            name: Series.build(series.name, series.x, series.y / base)
            for name, series in table.items()
        }

    def latency_growth(self, design: str) -> float:
        series = self.latency_ns[design]
        return float(series.y[-1] / series.y[0] - 1.0)

    def mean_edp_reduction_vs_am(self, design: str) -> float:
        """Average EDP reduction vs the AM across the lifetime."""
        am = self.edp["am"].y
        dev = self.edp[design].y
        return float((1.0 - dev / am).mean())

    def render(self) -> str:
        rows = []
        for design in DESIGNS:
            rows.append(
                [
                    design,
                    self.latency_ns[design].y[0],
                    self.latency_ns[design].y[-1],
                    self.latency_growth(design),
                    self.power_w[design].y[0] * 1e3,
                    self.power_w[design].y[-1] * 1e3,
                    self.mean_edp_reduction_vs_am(design),
                ]
            )
        return format_table(
            [
                "design",
                "lat y0",
                "lat y7",
                "growth",
                "mW y0",
                "mW y7",
                "EDP red. vs AM",
            ],
            rows,
        )


def _design_kind(design: str) -> str:
    if design == "am":
        return "am"
    return "column" if "cb" in design else "row"


def run(
    context: Optional[ExperimentContext] = None,
    width: int = 16,
    years: Sequence[float] = YEARS,
    num_patterns: Optional[int] = None,
    cycle_ns: Optional[float] = None,
    skip: Optional[int] = None,
) -> LifetimeResult:
    ctx = context or default_context()
    n = num_patterns or ctx.patterns(PAPER_PATTERNS)
    cycle_ns = cycle_ns or SETTINGS[width]["cycle_ns"]
    skip = skip or SETTINGS[width]["skip"]
    md, mr = ctx.stream(width, n)

    latency: Dict[str, list] = {d: [] for d in DESIGNS}
    power: Dict[str, list] = {d: [] for d in DESIGNS}
    edp: Dict[str, list] = {d: [] for d in DESIGNS}

    for design in DESIGNS:
        kind = _design_kind(design)
        netlist = ctx.netlist(width, kind)
        factory = ctx.factory(width, kind)
        # Switched capacitance is delay-independent: one power pass
        # per design serves every year (leakage picks up the Vth drift
        # separately).
        switched_caps = ctx.switched_caps(width, kind, n)
        adaptive = design.startswith("a-")
        if adaptive:
            # Every year's row of the declared demand, in one read.
            streams = ctx.stream_results(width, kind, years, n)
        else:
            # Prefetch every year's critical path in one vectorized
            # STA sweep (fills the design's per-year latency cache).
            ctx.fixed_design(width, kind).latencies_ns(years)
        for index, year in enumerate(years):
            if adaptive:
                arch = ctx.variable_design(
                    width, kind, skip, cycle_ns, adaptive=True
                )
                report = arch.run_patterns(
                    md, mr, years=year, stream=streams[index]
                ).report
                lat = report.average_latency_ns
                cycles = report.average_cycles_per_op
                bits = {"razor_bits": 2 * width}
            else:
                lat = ctx.fixed_design(width, kind).latency_ns(year)
                cycles = 1.0
                bits = {"output_ff_bits": 2 * width}
            pw = power_report(
                netlist,
                switched_caps,
                lat,
                ctx.technology,
                mean_delta_vth=factory.mean_delta_vth(year),
                input_ff_bits=2 * width,
                cycles_per_op=cycles,
                name=design,
                **bits,
            )
            latency[design].append(lat)
            power[design].append(pw.total_watts)
            edp[design].append(pw.edp_joule_ns)

    def pack(table):
        return {
            d: Series.build(d, list(years), table[d]) for d in DESIGNS
        }

    return LifetimeResult(
        width=width,
        years=years,
        latency_ns=pack(latency),
        power_w=pack(power),
        edp=pack(edp),
    )


def run_fig26(context=None, **kw):
    return run(context, width=16, **kw)


def run_fig27(context=None, **kw):
    return run(context, width=32, **kw)
