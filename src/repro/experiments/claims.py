"""The headline claim checklist, evaluated programmatically.

``python -m repro experiments claims`` runs a compact subset of the
evaluation and fills a :class:`~repro.analysis.report.ReproductionReport`
claim table -- the quickest way to see whether a modified library still
reproduces the paper.  Each claim mirrors a row of EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..analysis.report import ReproductionReport
from .context import ExperimentContext, StreamDemand, default_context
from . import (
    fig05_delay_distribution,
    fig07_aging_trend,
    fig13_14_latency_sweep,
    fig19_22_adaptive_errors,
    fig25_area,
    fig26_27_lifetime,
    tables_one_cycle_ratio,
)


@dataclasses.dataclass
class ClaimsResult:
    report: ReproductionReport

    @property
    def all_hold(self) -> bool:
        return self.failed_claims == 0

    @property
    def failed_claims(self) -> int:
        """Claims that do not hold (a suite run fails on any)."""
        return len(self.report.claims) - self.report.claims_held

    def render(self) -> str:
        return self.report.render()


#: Lifetime points of the Fig. 26 claim.
LIFETIME_YEARS = (0.0, 7.0)


def demands(
    context: ExperimentContext, num_patterns: Optional[int] = None
) -> List[StreamDemand]:
    """The demands of the figures the checklist re-runs."""
    patterns = num_patterns or context.patterns(4000)
    return (
        fig05_delay_distribution.demands(context, num_patterns=patterns)
        + fig13_14_latency_sweep.demands(context, num_patterns=patterns)
        + fig19_22_adaptive_errors.demands(context, num_patterns=patterns)
        + fig26_27_lifetime.demands(
            context, num_patterns=patterns, years=LIFETIME_YEARS
        )
    )


def run(
    context: Optional[ExperimentContext] = None,
    num_patterns: Optional[int] = None,
) -> ClaimsResult:
    ctx = context or default_context()
    report = ReproductionReport(title="Headline claim checklist")
    patterns = num_patterns or ctx.patterns(4000)

    # 1. Critical paths (Fig. 5).
    fig05 = fig05_delay_distribution.run(ctx, num_patterns=patterns)
    report.add_claim(
        "16x16 AM critical path",
        "1.32 ns",
        "%.3f ns" % fig05.critical_ns["am"],
        abs(fig05.critical_ns["am"] - 1.32) < 0.01,
    )
    report.add_claim(
        "bypassing critical paths exceed the AM's",
        "1.88/1.82 vs 1.32 ns",
        "%.2f/%.2f vs %.2f ns"
        % (
            fig05.critical_ns["column"],
            fig05.critical_ns["row"],
            fig05.critical_ns["am"],
        ),
        fig05.critical_ns["column"] > fig05.critical_ns["am"]
        and fig05.critical_ns["row"] > fig05.critical_ns["am"],
    )
    report.add_claim(
        "bulk of AM paths below 0.7 ns",
        ">98%",
        "%.1f%%" % (100 * fig05.fraction_below["am"]),
        fig05.fraction_below["am"] > 0.9,
    )

    # 2. Aging trend (Fig. 7).
    fig07 = fig07_aging_trend.run(ctx)
    report.add_claim(
        "7-year critical-path drift",
        "~13%",
        "%.1f%% / %.1f%%"
        % (100 * fig07.drift_at_7y["column"], 100 * fig07.drift_at_7y["row"]),
        all(abs(d - 0.13) < 0.02 for d in fig07.drift_at_7y.values()),
    )

    # 3. One-cycle ratios (Table I).
    tab1 = tables_one_cycle_ratio.run_table1(ctx, num_patterns=patterns)
    measured = tab1.ratios[("row", 7)]
    report.add_claim(
        "16x16 Skip-7 one-cycle ratio",
        "77.4% (paper VLRB)",
        "%.1f%%" % (100 * measured),
        abs(measured - 0.7728) < 0.03,
    )

    # 4. Variable latency beats fixed latency (Fig. 13).
    fig13 = fig13_14_latency_sweep.run_fig13(
        ctx, num_patterns=patterns, skips=(7,)
    )
    improvement = fig13.improvement_vs("column", 7, "flcb")
    report.add_claim(
        "A-VLCB-16 beats the FLCB",
        "-37.3% at its preferred point",
        "%.1f%%" % (-100 * improvement),
        improvement > 0.2,
    )
    report.add_claim(
        "A-VLCB-16 beats even the AM in its preferred range",
        "-10.7%",
        "%.1f%%" % (-100 * fig13.improvement_vs("column", 7, "am")),
        fig13.improvement_vs("column", 7, "am") > 0.0,
    )

    # 5. AHL reduces aged error counts (Fig. 19).
    fig19 = fig19_22_adaptive_errors.run_fig19(
        ctx, num_patterns=patterns
    )
    report.add_claim(
        "adaptive errors <= traditional (aged)",
        "everywhere",
        "max gap %d"
        % int(max(fig19.traditional.y - fig19.adaptive.y)),
        fig19.adaptive_never_worse(slack=2),
    )

    # 6. Area overhead shrinks with width (Fig. 25).
    fig25 = fig25_area.run(ctx)
    report.add_claim(
        "adaptive area overhead shrinks at 32x32",
        "22.9% -> 12.3%",
        "%.1f%% -> %.1f%%"
        % (
            100 * fig25.adaptive_overhead(16, "column"),
            100 * fig25.adaptive_overhead(32, "column"),
        ),
        fig25.adaptive_overhead(32, "column")
        < fig25.adaptive_overhead(16, "column"),
    )

    # 7. Lifetime latency (Fig. 26).
    fig26 = fig26_27_lifetime.run_fig26(
        ctx, num_patterns=patterns, years=LIFETIME_YEARS
    )
    report.add_claim(
        "fixed designs degrade ~15%, adaptive stay flat",
        "15% vs ~3%",
        "%.1f%% vs %.1f%%"
        % (
            100 * fig26.latency_growth("flcb"),
            100 * fig26.latency_growth("a-vlcb"),
        ),
        fig26.latency_growth("flcb") > 0.1
        and fig26.latency_growth("a-vlcb") < 0.05,
    )
    report.add_claim(
        "AM burns the most power",
        "largest of the five",
        "%.3f mW vs FLCB %.3f mW"
        % (
            1e3 * fig26.power_w["am"].y[0],
            1e3 * fig26.power_w["flcb"].y[0],
        ),
        fig26.power_w["am"].y[0] > fig26.power_w["flcb"].y[0],
    )

    return ClaimsResult(report=report)
