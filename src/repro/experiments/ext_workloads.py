"""Extension experiment ``ext_workloads``: application-shaped streams.

The paper evaluates on uniform random operands; its introduction
motivates the multiplier with FFT/DCT/filtering kernels.  This
experiment drives the architecture with the application-shaped streams
of :mod:`repro.workloads.dsp` and reports, per workload:

* the one-cycle *potential* (fraction of patterns the relaxed judging
  block would call one-cycle) and the ratio actually realized,
* the average latency, Razor error count and whether the aging
  indicator tripped,
* the improvement over the fixed-latency host.

Two findings: (a) DSP coefficient streams are zero-rich, so their
one-cycle potential is higher than uniform noise's; (b) their *temporal*
structure differs too -- a FIR stream interleaves near-full-scale center
taps with tiny tail taps, producing transition patterns that violate a
clock tuned on uniform noise, which trips the AHL.  The indicator thus
adapts to workload structure exactly as it adapts to aging -- an
emergent property of the paper's design worth documenting.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..analysis.tables import format_table
from ..workloads.dsp import dct_stream, fir_filter_stream, image_gradient_stream
from ..workloads.generators import uniform_operands
from .context import ExperimentContext, StreamDemand, default_context

PAPER_PATTERNS = 10000


#: Workload name -> operand-stream generator (seeded with 5).
WORKLOADS = {
    "uniform": uniform_operands,
    "fir": fir_filter_stream,
    "dct": dct_stream,
    "image": image_gradient_stream,
}


@dataclasses.dataclass
class WorkloadRow:
    name: str
    one_cycle_potential: float
    one_cycle_ratio: float
    average_latency_ns: float
    error_count: int
    indicator_aged_at: int
    improvement_vs_fixed: float
    products_exact: bool


@dataclasses.dataclass
class WorkloadResult:
    width: int
    cycle_ns: float
    rows: Dict[str, WorkloadRow]

    def render(self) -> str:
        table = [
            [
                row.name,
                row.one_cycle_potential,
                row.one_cycle_ratio,
                row.average_latency_ns,
                row.error_count,
                row.indicator_aged_at,
                row.improvement_vs_fixed,
                row.products_exact,
            ]
            for row in self.rows.values()
        ]
        return format_table(
            ["workload", "potential", "realized", "latency ns", "errors",
             "ahl@op", "vs fixed", "exact"],
            table,
        )


def demands(
    context: ExperimentContext,
    width: int = 16,
    kind: str = "column",
    num_patterns: Optional[int] = None,
    **_,
) -> List[StreamDemand]:
    """The fresh design on each stream of :data:`WORKLOADS`."""
    n = num_patterns or context.patterns(PAPER_PATTERNS)
    fresh = np.ones((1, len(context.netlist(width, kind).cells)))
    out = []
    for generate in WORKLOADS.values():
        md, mr = generate(width, n, seed=5)
        out.append(StreamDemand(width, kind, {"md": md, "mr": mr}, fresh))
    return out


def run(
    context: Optional[ExperimentContext] = None,
    width: int = 16,
    kind: str = "column",
    num_patterns: Optional[int] = None,
    cycle_ns: float = 0.9,
    skip: Optional[int] = None,
) -> WorkloadResult:
    ctx = context or default_context()
    n = num_patterns or ctx.patterns(PAPER_PATTERNS)
    skip = skip if skip is not None else width // 2 - 1
    arch = ctx.variable_design(width, kind, skip, cycle_ns)
    fixed = ctx.fixed_design(width, kind).latency_ns(0.0)

    from ..core.judging import JudgingBlock

    relaxed = JudgingBlock(width, skip)
    rows: Dict[str, WorkloadRow] = {}
    for name, demand in zip(WORKLOADS, demands(ctx, width, kind, n)):
        md, mr = demand.stimulus["md"], demand.stimulus["mr"]
        (stream,) = ctx.price_demand(demand)
        result = arch.run_patterns(
            md, mr, check_golden=True, stream=stream
        )
        report = result.report
        judged = md if kind == "column" else mr
        rows[name] = WorkloadRow(
            name=name,
            one_cycle_potential=relaxed.one_cycle_ratio(judged),
            one_cycle_ratio=report.one_cycle_ratio,
            average_latency_ns=report.average_latency_ns,
            error_count=report.error_count,
            indicator_aged_at=report.indicator_aged_at,
            improvement_vs_fixed=report.improvement_over(fixed),
            products_exact=bool(result.golden_ok),
        )
    return WorkloadResult(width=width, cycle_ns=cycle_ns, rows=rows)
