"""Figs. 23 and 24: average latency of adaptive vs traditional variable
latency (plus the fixed baselines) on aged silicon, per skip number.

Fig. 23: 16x16, Skip-7/8/9 panels.  Fig. 24: 32x32, Skip-15/16/17.

Paper reading: the adaptive design's latency is equal to or better than
the traditional design's, with the biggest gap at short cycle periods
where the traditional design drowns in Razor penalties.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.series import Series
from ..analysis.tables import format_table
from . import fig13_14_latency_sweep
from .context import ExperimentContext


@dataclasses.dataclass
class AdaptiveLatencyResult:
    width: int
    years: float
    #: (kind, skip, adaptive) -> latency Series.
    latency: Dict[Tuple[str, int, bool], Series]
    baselines: Dict[str, float]

    def gap_at_shortest(self, kind: str, skip: int) -> float:
        """Traditional minus adaptive latency at the shortest period."""
        trad = self.latency[(kind, skip, False)].y[0]
        adap = self.latency[(kind, skip, True)].y[0]
        return float(trad - adap)

    def render(self) -> str:
        rows = []
        for (kind, skip, adaptive), series in sorted(
            self.latency.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
        ):
            rows.append(
                [
                    "%s skip%d %s"
                    % (kind, skip, "A-VL" if adaptive else "T-VL"),
                    series.y[0],
                    series.best()[1],
                    series.y[-1],
                ]
            )
        return format_table(
            ["design", "lat @shortT", "best", "lat @longT"], rows
        )


def run(
    context: Optional[ExperimentContext] = None,
    width: int = 16,
    years: float = 7.0,
    skips: Optional[Sequence[int]] = None,
    cycles: Optional[Sequence[float]] = None,
    num_patterns: Optional[int] = None,
    kinds: Sequence[str] = ("column", "row"),
) -> AdaptiveLatencyResult:
    """Fig. 13/14's latency sweep at age ``years``, once traditional
    and once adaptive."""
    sweeps = {
        adaptive: fig13_14_latency_sweep.run(
            context, width=width, skips=skips, cycles=cycles,
            num_patterns=num_patterns, years=years, adaptive=adaptive,
            kinds=kinds,
        )
        for adaptive in (False, True)
    }
    return AdaptiveLatencyResult(
        width=width,
        years=years,
        latency={
            (kind, skip, adaptive): series
            for adaptive, sweep in sweeps.items()
            for (kind, skip), series in sweep.latency.items()
        },
        baselines=sweeps[True].baselines,
    )


def run_fig23(context=None, **kw):
    return run(context, width=16, **kw)


def run_fig24(context=None, **kw):
    return run(context, width=32, **kw)
