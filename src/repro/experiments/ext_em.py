"""Extension experiment ``ext_em``: BTI + electromigration lifetime.

The paper's conclusion (Section V) argues that the proposed variable-
latency multipliers remain effective when interconnect electromigration
compounds the BTI transistor aging, because they have less timing waste
to start with, while traditional designs must clock at the doubly
degraded worst case.  This experiment quantifies that: it composes the
calibrated BTI delay factors with activity-driven EM factors and
compares the fixed-latency and adaptive designs' latency growth.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..aging.electromigration import (
    ElectromigrationModel,
    cell_toggle_rates,
    combined_delay_scale,
)
from ..analysis.series import Series
from ..analysis.tables import format_table
from ..timing.sta import StaticTiming, critical_delays
from .context import ExperimentContext, StreamDemand, default_context

YEARS = (0.0, 2.0, 5.0, 7.0, 10.0)
PAPER_PATTERNS = 10000


@dataclasses.dataclass
class EmResult:
    width: int
    #: design -> latency Series over years, BTI only.
    bti_only: Dict[str, Series]
    #: design -> latency Series over years, BTI + EM.
    combined: Dict[str, Series]

    def growth(self, table: str, design: str) -> float:
        series = (self.bti_only if table == "bti" else self.combined)[design]
        return float(series.y[-1] / series.y[0] - 1.0)

    def render(self) -> str:
        rows = []
        for design in sorted(self.bti_only):
            rows.append(
                [
                    design,
                    self.growth("bti", design),
                    self.growth("combined", design),
                ]
            )
        return format_table(
            ["design", "BTI growth", "BTI+EM growth"], rows
        )


KINDS = ("column", "row")


def demands(
    context: ExperimentContext,
    width: int = 16,
    years: Sequence[float] = YEARS,
    num_patterns: Optional[int] = None,
    em_model: Optional[ElectromigrationModel] = None,
    **_,
) -> List[StreamDemand]:
    """Per bypassing design (in :data:`KINDS` order), one delay-scale
    row per ``(year, with_em)`` corner -- BTI only, then BTI + EM --
    on the standard stream (ones for the fresh circuit)."""
    n = num_patterns or context.patterns(PAPER_PATTERNS)
    md, mr = context.stream(width, n)
    em = em_model or ElectromigrationModel(context.technology)
    out = []
    for kind in KINDS:
        netlist = context.netlist(width, kind)
        factory = context.factory(width, kind)
        rates = cell_toggle_rates(
            netlist, context.toggle_counts(width, kind, n), n
        )
        num_cells = len(netlist.cells)
        rows = []
        for year in years:
            bti_scale = (
                factory.delay_scale(year) if year else np.ones(num_cells)
            )
            rows.append(bti_scale)
            rows.append(
                combined_delay_scale(
                    bti_scale, em.delay_scale(netlist, rates, year)
                )
                if year
                else bti_scale
            )
        out.append(
            StreamDemand(width, kind, {"md": md, "mr": mr}, np.vstack(rows))
        )
    return out


def run(
    context: Optional[ExperimentContext] = None,
    width: int = 16,
    years: Sequence[float] = YEARS,
    num_patterns: Optional[int] = None,
    cycle_ns: Optional[float] = None,
    skip: Optional[int] = None,
    em_model: Optional[ElectromigrationModel] = None,
) -> EmResult:
    ctx = context or default_context()
    skip = skip if skip is not None else width // 2 - 1

    bti_only: Dict[str, list] = {}
    combined: Dict[str, list] = {}
    declared = ctx.demands(demands, width, years, num_patterns, em_model)
    for kind, demand in zip(KINDS, declared):
        md, mr = demand.stimulus["md"], demand.stimulus["mr"]
        netlist = ctx.netlist(width, kind)
        if cycle_ns is None:
            flcb0 = StaticTiming(netlist, ctx.technology).critical_delay
            vl_cycle = 0.64 * flcb0
        else:
            vl_cycle = cycle_ns

        fixed_name = "flcb" if kind == "column" else "flrb"
        adaptive_name = "a-vlcb" if kind == "column" else "a-vlrb"
        for name in (fixed_name, adaptive_name):
            bti_only.setdefault(name, [])
            combined.setdefault(name, [])

        # The adaptive designs' streams are priced through the context,
        # so every corner is a ``stream`` artifact and a warm store
        # replays nothing.
        streams = ctx.price_demand(demand)
        # Fixed designs clock at the degraded critical path: one
        # vectorized multi-corner STA sweep (bit-identical per corner
        # to a per-scale StaticTiming build).
        fixed_delays = critical_delays(netlist, ctx.technology, demand.scales)
        for index, (stream, fixed) in enumerate(zip(streams, fixed_delays)):
            # Rows alternate BTI only / BTI + EM per year.
            table = combined if index % 2 else bti_only
            table[fixed_name].append(float(fixed))
            # Adaptive design: fixed clock, Razor absorbs the drift.
            arch = ctx.variable_design(width, kind, skip, vl_cycle)
            report = arch.run_patterns(
                md, mr, years=0.0, stream=stream
            ).report
            table[adaptive_name].append(report.average_latency_ns)

    def pack(table):
        return {
            name: Series.build(name, list(years) * 1, values)
            for name, values in table.items()
        }

    return EmResult(width=width, bti_only=pack(bti_only),
                    combined=pack(combined))
