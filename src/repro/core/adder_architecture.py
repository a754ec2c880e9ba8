"""Aging-aware variable-latency adder (the paper's lineage, [20]-[21]).

The introduction credits Chen et al.'s VL-Adder as the only prior
variable-latency design that considers aging -- but notes it cannot
*adjust dynamically*.  This module builds that missing rung of the
ladder with the paper's own machinery: the Fig. 4 ripple-carry adder
with two hold-logic criteria (:func:`repro.arith.adders
.adaptive_hold_rca`), Razor flip-flops on the sum, and the same aging
indicator switching from the relaxed to the strict hold once errors
exceed the threshold.

The decision logic differs from the multiplier in one instructive way:
the hold is computed *structurally* from the operands' propagate bits
(no zero counting), so the architecture demonstrates that the AHL
concept is criterion-agnostic -- anything that predicts "long path
live" can drive it.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..aging.degradation import AgedCircuitFactory
from ..arith.adders import adaptive_hold_rca
from ..config import (
    DEFAULT_SIM_CONFIG,
    DEFAULT_TECHNOLOGY,
    SimulationConfig,
    Technology,
)
from ..errors import ConfigError, SimulationError
from ..nets.netlist import Netlist
from ..timing.engine import StreamResult
from ..timing.sta import StaticTiming
from .architecture import run_control_loop
from .stats import ArchitectureRunResult


@dataclasses.dataclass
class AgingAwareAdder:
    """Variable-latency RCA with adaptive hold logic and Razor."""

    netlist: Netlist
    width: int
    cycle_ns: float
    factory: AgedCircuitFactory
    technology: Technology = DEFAULT_TECHNOLOGY
    config: SimulationConfig = DEFAULT_SIM_CONFIG
    adaptive: bool = True
    name: str = ""

    def __post_init__(self):
        if self.cycle_ns <= 0:
            raise ConfigError("cycle_ns must be positive")
        if not self.name:
            prefix = "A-VL" if self.adaptive else "T-VL"
            self.name = "%s-RCA-%d" % (prefix, self.width)

    @classmethod
    def build(
        cls,
        width: int = 16,
        position: Optional[int] = None,
        cycle_ns: Optional[float] = None,
        adaptive: bool = True,
        technology: Technology = DEFAULT_TECHNOLOGY,
        config: SimulationConfig = DEFAULT_SIM_CONFIG,
        characterize_patterns: int = 1000,
    ) -> "AgingAwareAdder":
        """Construct around a fresh adaptive-hold RCA netlist.

        ``cycle_ns`` defaults to 5/8 of the critical path -- the Fig. 4
        proportions (cycle 5 against a worst chain of 8).
        """
        netlist = adaptive_hold_rca(width, position)
        factory = AgedCircuitFactory.characterize(
            netlist, technology, num_patterns=characterize_patterns
        )
        if cycle_ns is None:
            cycle_ns = 0.625 * StaticTiming(netlist, technology).critical_delay
        return cls(
            netlist=netlist,
            width=width,
            cycle_ns=cycle_ns,
            factory=factory,
            technology=technology,
            config=config,
            adaptive=adaptive,
        )

    def with_cycle(self, cycle_ns: float) -> "AgingAwareAdder":
        return dataclasses.replace(self, cycle_ns=cycle_ns, name="")

    def critical_path_ns(self, years: float = 0.0) -> float:
        scale = None if years == 0 else self.factory.delay_scale(years)
        return StaticTiming(
            self.netlist, self.technology, scale
        ).critical_delay

    def run_random(
        self, num_patterns: int, seed: int = 1, years: float = 0.0
    ) -> ArchitectureRunResult:
        rng = np.random.default_rng(seed)
        high = 1 << self.width
        a = rng.integers(0, high, num_patterns, dtype=np.uint64)
        b = rng.integers(0, high, num_patterns, dtype=np.uint64)
        return self.run_patterns(a, b, years=years)

    def run_patterns(
        self,
        a: np.ndarray,
        b: np.ndarray,
        years: float = 0.0,
        check_golden: bool = False,
        stream: Optional[StreamResult] = None,
    ) -> ArchitectureRunResult:
        """Cycle-accurate variable-latency addition of a stream.

        ``stream`` is the adder's simulated stream of ``(a, b)`` at age
        ``years`` with bit arrivals (e.g. one row of
        ``factory.stream_results(..., collect_bit_arrivals=True)``);
        without it the stream is replayed here.  The stream then runs
        the multiplier's control loop
        (:func:`repro.core.architecture.run_control_loop`) under
        ``config.recovery_policy``.
        """
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        if a.shape != b.shape or a.ndim != 1 or a.size == 0:
            raise SimulationError("a and b must be equal-length 1-D arrays")

        if stream is None:
            stream = self.factory.stream_result(
                years, {"a": a, "b": b}, collect_bit_arrivals=True
            )
        elif stream.num_patterns != a.size:
            raise SimulationError(
                "precomputed stream has %d patterns, operands have %d"
                % (stream.num_patterns, a.size)
            )
        # Path delay of the *sum* only -- the hold bits are shallow
        # side logic, sampled separately by the controller.
        delays = stream.bit_arrivals["s"].max(axis=0)
        # One-cycle flags, row 0 under the relaxed hold, row 1 under the
        # strict hold.
        judged = ~np.stack(
            [stream.outputs["hold"], stream.outputs["hold_strict"]]
        ).astype(bool)
        report, one_cycle, resolution = run_control_loop(
            self.name,
            judged,
            delays,
            self.cycle_ns,
            years,
            self.config,
            self.adaptive,
        )
        golden_ok = None
        if check_golden:
            golden_ok = bool(
                np.array_equal(stream.outputs["s"], a + b)
            )
        return ArchitectureRunResult(
            report=report,
            delays=delays,
            products=stream.outputs["s"],
            one_cycle=one_cycle,
            errors=resolution.errors,
            mean_switched_caps=(
                None
                if stream.switched_caps is None
                else stream.mean_switched_caps()
            ),
            golden_ok=golden_ok,
            undetectable=resolution.undetectable,
            recovered=resolution.recovered,
            exhausted=resolution.exhausted,
        )
