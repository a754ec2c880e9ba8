"""Extension experiment ``ext_faults``: fault coverage + recovery.

The paper validates the architecture against *smooth* BTI aging; the
aging-monitor literature (Juracy et al.'s survey; the NBTI multiplier
fault-injection flows in PAPERS.md) validates countermeasures by
injecting the faults aging actually produces and watching the
error-detection and reconfiguration machinery respond.  This experiment
does both measurements for the reproduction:

1. **Coverage sweep** -- an :class:`~repro.faults.InjectionCampaign`
   over stuck-at / transient / delay fault sites measures what fraction
   of corrupted products the Razor bank flags.  The expected split is
   stark and physical: *delay* faults produce late arrivals, which is
   exactly what Razor samples for, while stuck-at and SEU corruption
   mostly latches cleanly before the main edge -- silent data corruption
   Razor was never designed to catch.
2. **Adaptive response** -- a localized delay hot-spot on the critical
   path elevates the one-cycle error rate; the adaptive design's aging
   indicator must trip and switch to Skip-(n+1), recovering most of the
   error-rate elevation, while the non-adaptive baseline keeps erroring.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.tables import format_table
from ..faults.campaign import (
    CampaignResult,
    InjectionCampaign,
    campaign_operands,
)
from ..faults.injector import fault_delay_scales
from ..faults.models import DelayFault
from ..timing.sta import StaticTiming
from .context import ExperimentContext, StreamDemand, default_context

PAPER_PATTERNS = 10000


@dataclasses.dataclass
class HotSpotResponse:
    """Adaptive vs traditional design under one delay hot-spot."""

    fault: DelayFault
    #: design name -> Razor error count under the hot-spot.
    errors: Dict[str, int]
    #: design name -> average latency (ns/op) under the hot-spot.
    latency_ns: Dict[str, float]
    #: Operation index where the adaptive indicator flipped (-1: never).
    adaptive_aged_at: int
    #: Error counts of the pristine (no-fault) adaptive run.
    pristine_errors: int


@dataclasses.dataclass
class FaultCoverageResult:
    width: int
    cycle_ns: float
    campaign: CampaignResult
    hotspot: HotSpotResponse

    def coverage(self, kind: Optional[str] = None) -> float:
        return self.campaign.detection_coverage(kind)

    def summary(self) -> Dict:
        out = {
            "width": self.width,
            "cycle_ns": self.cycle_ns,
            "hotspot_adaptive_errors": self.hotspot.errors["adaptive"],
            "hotspot_traditional_errors":
                self.hotspot.errors["traditional"],
            "hotspot_adaptive_aged_at": self.hotspot.adaptive_aged_at,
        }
        out.update(
            ("campaign_%s" % key, value)
            for key, value in self.campaign.summary().items()
        )
        return out

    def to_dict(self) -> Dict:
        return {
            "width": self.width,
            "cycle_ns": self.cycle_ns,
            "campaign": self.campaign.to_dict(),
            "hotspot": {
                "fault": self.hotspot.fault.describe(),
                "errors": dict(self.hotspot.errors),
                "latency_ns": dict(self.hotspot.latency_ns),
                "adaptive_aged_at": self.hotspot.adaptive_aged_at,
                "pristine_errors": self.hotspot.pristine_errors,
            },
        }

    def render(self) -> str:
        lines = [self.campaign.render(), ""]
        lines.append(
            "hot-spot %s: pristine adaptive errors %d"
            % (
                self.hotspot.fault.describe(),
                self.hotspot.pristine_errors,
            )
        )
        rows = [
            [name, float(self.hotspot.errors[name]),
             self.hotspot.latency_ns[name]]
            for name in sorted(self.hotspot.errors)
        ]
        lines.append(
            format_table(["design", "errors", "ns/op"], rows)
        )
        lines.append(
            "adaptive indicator flipped at op %d"
            % self.hotspot.adaptive_aged_at
        )
        return "\n".join(lines)


def _hot_spot(
    ctx: ExperimentContext, width: int, cycle_fraction: float, years: float,
) -> Tuple[float, DelayFault, np.ndarray]:
    """The clock ``T``, the hot-spot fault -- an extra 0.9 T midway
    along the critical path of the ``width``-bit column design -- and
    its ``(1, num_cells)`` delay-scale row at age ``years``.  A delay
    fault has no hooks, so its stream is one priced row."""
    netlist = ctx.netlist(width, "column")
    sta = StaticTiming(netlist, ctx.technology)
    cycle_ns = cycle_fraction * sta.critical_delay
    path = sta.critical_path()
    hot = DelayFault(path[len(path) // 2].index, 0.9 * cycle_ns)
    scales = fault_delay_scales(
        netlist,
        [hot],
        ctx.factory(width, "column").lifetime_delay_scales([years]),
        ctx.technology,
    )
    return cycle_ns, hot, scales


def demands(
    context: ExperimentContext,
    width: int = 8,
    num_patterns: Optional[int] = None,
    cycle_fraction: float = 0.6,
    seed: int = 3,
    years: float = 0.0,
    **_,
) -> List[StreamDemand]:
    """The hot-spot row on the campaign workload.  The campaign's own
    pristine stream is priced by the campaign, outside any prefetch."""
    n = num_patterns or context.patterns(PAPER_PATTERNS, floor=400)
    _, _, scales = _hot_spot(context, width, cycle_fraction, years)
    md, mr = campaign_operands(width, n, seed)
    return [StreamDemand(width, "column", {"md": md, "mr": mr}, scales)]


def run(
    context: Optional[ExperimentContext] = None,
    width: int = 8,
    num_sites: int = 60,
    num_patterns: Optional[int] = None,
    cycle_fraction: float = 0.6,
    skip: Optional[int] = None,
    seed: int = 3,
    years: float = 0.0,
    prune: bool = True,
) -> FaultCoverageResult:
    ctx = context or default_context()
    n = num_patterns or ctx.patterns(PAPER_PATTERNS, floor=400)
    skip = skip if skip is not None else width // 2 - 1
    cycle_ns, hot, scales = _hot_spot(ctx, width, cycle_fraction, years)

    adaptive = ctx.variable_design(width, "column", skip, cycle_ns)
    campaign = InjectionCampaign.sweep(
        adaptive,
        num_sites=num_sites,
        num_patterns=n,
        seed=seed,
        years=years,
    )
    # A warm suite run loads the baseline stream and every site from
    # the store and simulates nothing.
    campaign_result = campaign.run(store=ctx.store, prune=prune)

    # The hot spot's extra delay rides on top of every pattern
    # exercising that path, lifting the one-cycle error rate past the
    # indicator threshold; its stream is shared by both designs.
    (stream,) = ctx.price(
        ctx.netlist(width, "column"),
        scales,
        {"md": campaign.md, "mr": campaign.mr},
    )

    traditional = ctx.variable_design(
        width, "column", skip, cycle_ns, adaptive=False
    )
    adaptive_run, traditional_run = (
        arch.run_patterns(campaign.md, campaign.mr, years=years, stream=stream)
        for arch in (adaptive, traditional)
    )

    hotspot = HotSpotResponse(
        fault=hot,
        errors={
            "adaptive": adaptive_run.report.error_count,
            "traditional": traditional_run.report.error_count,
        },
        latency_ns={
            "adaptive": adaptive_run.report.average_latency_ns,
            "traditional": traditional_run.report.average_latency_ns,
        },
        adaptive_aged_at=adaptive_run.report.indicator_aged_at,
        pristine_errors=campaign_result.baseline.report.error_count,
    )
    return FaultCoverageResult(
        width=width,
        cycle_ns=cycle_ns,
        campaign=campaign_result,
        hotspot=hotspot,
    )
