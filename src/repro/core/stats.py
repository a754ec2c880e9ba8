"""Latency and error reports produced by the architecture simulation."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np


def _empty_int_list() -> List[int]:
    return []


@dataclasses.dataclass(frozen=True)
class LatencyReport:
    """Cycle-accurate accounting of one pattern-stream execution.

    Attributes:
        name: Design label (e.g. ``"A-VLCB-16 skip7"``).
        cycle_ns: Clock period used.
        years: Aging point the circuit was simulated at.
        num_ops: Operations executed.
        total_cycles: Clock cycles consumed, including Razor penalties.
        one_cycle_ops: Patterns the AHL judged one-cycle.
        two_cycle_ops: Patterns the AHL judged two-cycle.
        error_count: Razor-detected timing violations (re-executed).
        undetectable_count: One-cycle patterns whose delay exceeded even
            the shadow-latch window -- must be 0 for a safe design point.
        deep_retry_ops: Operations whose delay exceeded the two-cycle
            budget entirely and fell back to the slow multi-cycle retry
            (0 inside the paper's preferred cycle-period ranges).
        window_errors: Razor errors per indicator window.
        indicator_trace: Indicator output after each window.
        indicator_aged_at: Operation index where the indicator flipped
            (-1 if it never did).
        policy: Recovery policy the run executed under (``"strict"``,
            ``"degrade"`` or ``"detect-only"``).
        recovered_ops: Overrunning operations the policy absorbed with a
            multi-cycle fallback inside the retry cap.
        recovery_exhausted_ops: Overrunning operations that hit the
            fallback cap (charged the cap, flagged in the stats; the
            ``strict`` policy raises instead of counting).
        window_recoveries: Recovery events (recovered + exhausted) per
            indicator window.
    """

    name: str
    cycle_ns: float
    years: float
    num_ops: int
    total_cycles: float
    one_cycle_ops: int
    two_cycle_ops: int
    error_count: int
    undetectable_count: int
    window_errors: List[int]
    indicator_trace: List[bool]
    indicator_aged_at: int
    deep_retry_ops: int = 0
    policy: str = "degrade"
    recovered_ops: int = 0
    recovery_exhausted_ops: int = 0
    window_recoveries: List[int] = dataclasses.field(
        default_factory=_empty_int_list
    )

    @property
    def average_latency_ns(self) -> float:
        """Mean latency per operation in ns (the paper's y-axis)."""
        if self.num_ops == 0:
            return 0.0
        return self.total_cycles * self.cycle_ns / self.num_ops

    @property
    def average_cycles_per_op(self) -> float:
        if self.num_ops == 0:
            return 0.0
        return self.total_cycles / self.num_ops

    @property
    def one_cycle_ratio(self) -> float:
        """Fraction of patterns judged one-cycle (Tables I-II)."""
        if self.num_ops == 0:
            return 0.0
        return self.one_cycle_ops / self.num_ops

    @property
    def error_rate(self) -> float:
        if self.num_ops == 0:
            return 0.0
        return self.error_count / self.num_ops

    def improvement_over(self, baseline_latency_ns: float) -> float:
        """Relative latency reduction vs a fixed-latency baseline.

        Positive values mean this design is faster (the paper quotes
        e.g. "37.3% less than the FLCB").
        """
        if baseline_latency_ns <= 0:
            return 0.0
        return 1.0 - self.average_latency_ns / baseline_latency_ns

    def summary(self) -> Dict[str, float]:
        return {
            "cycle_ns": self.cycle_ns,
            "years": self.years,
            "avg_latency_ns": self.average_latency_ns,
            "avg_cycles": self.average_cycles_per_op,
            "one_cycle_ratio": self.one_cycle_ratio,
            "errors": float(self.error_count),
            "undetectable": float(self.undetectable_count),
            "recovered": float(self.recovered_ops),
            "recovery_exhausted": float(self.recovery_exhausted_ops),
        }

    def to_dict(self) -> Dict:
        """JSON-ready dict: every field plus the derived ratios.

        This is the one serialization path (see
        :mod:`repro.analysis.serialize`): ``render()`` headers and the
        campaign and benchmark JSON all consume it.
        """
        data = dataclasses.asdict(self)
        data["indicator_trace"] = [bool(x) for x in self.indicator_trace]
        data.update(self.summary())
        data["name"] = self.name
        data["policy"] = self.policy
        data["num_ops"] = self.num_ops
        return data


@dataclasses.dataclass
class ArchitectureRunResult:
    """A :class:`LatencyReport` plus the raw simulation artefacts."""

    report: LatencyReport
    #: Per-pattern floating-mode path delay in ns.
    delays: np.ndarray
    #: Per-pattern product values (uint64).
    products: np.ndarray
    #: Per-pattern one-cycle decision.
    one_cycle: np.ndarray
    #: Per-pattern Razor error flag.
    errors: np.ndarray
    #: Mean switched capacitance per op (drives the power model); None
    #: when the stream was priced without the power pass.
    mean_switched_caps: Optional[float]
    #: Whether products matched the golden model (None when unchecked).
    golden_ok: Optional[bool] = None
    #: Per-pattern mask: arrival overran the shadow window while judged
    #: one-cycle -- an undetectable violation (None on legacy paths).
    undetectable: Optional[np.ndarray] = None
    #: Per-pattern mask: the recovery policy absorbed an over-budget
    #: operation with a multi-cycle fallback inside the cap.
    recovered: Optional[np.ndarray] = None
    #: Per-pattern mask: the fallback hit the retry cap (degrade policy
    #: records these; strict raises on the first).
    exhausted: Optional[np.ndarray] = None

    def summary(self) -> Dict[str, float]:
        """Scalar summary (the :class:`LatencyReport` one plus run-level
        aggregates) -- same protocol as ``CampaignResult.summary()``."""
        data = self.report.summary()
        data["num_ops"] = float(self.report.num_ops)
        if self.mean_switched_caps is not None:
            data["mean_switched_caps"] = float(self.mean_switched_caps)
        if self.golden_ok is not None:
            data["golden_ok"] = float(self.golden_ok)
        return data

    def to_dict(self) -> Dict:
        """JSON-ready dict (scalar statistics only -- the per-pattern
        arrays stay in memory; serialize them separately if needed)."""
        return {
            "report": self.report.to_dict(),
            "mean_switched_caps": (
                None
                if self.mean_switched_caps is None
                else float(self.mean_switched_caps)
            ),
            "golden_ok": self.golden_ok,
            "num_ops": self.report.num_ops,
        }
