"""Gate-level closed-loop validation of the Fig. 8 architecture.

The cycle-accurate simulation in :mod:`repro.core.architecture` models
the AHL *behaviorally* (zero counts compared in Python).  This module
closes the loop at the gate level instead:

* the one-/two-cycle decision comes from simulating the **structural AHL
  netlist** (popcount tree, threshold comparators, selection mux of
  Fig. 12) on the judged operand and the aging-indicator bit;
* the Razor check uses **per-bit arrival times** of the product bus --
  each of the ``2m`` Razor flip-flops raises its own error flag, and the
  architecture sees their OR (Fig. 11);
* the input-register gating sequence (the ``!gating`` signal stalling
  the operand flip-flops for the second cycle of two-cycle patterns) is
  reconstructed and checked for consistency.

:func:`validate_against_behavioral` runs both models on the same stream
and reports any divergence -- the repository's strongest evidence that
the behavioral experiments characterize the actual circuit.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..errors import SimulationError
from ..timing.engine import CompiledCircuit
from .ahl import ahl_netlist
from .aging_indicator import AgingIndicator
from .architecture import AgingAwareMultiplier


@dataclasses.dataclass
class StructuralRunResult:
    """Gate-level decision trace for one stream."""

    #: Structural AHL one-cycle decision per operation.
    one_cycle: np.ndarray
    #: Per-operation Razor error (OR over the per-bit flags).
    errors: np.ndarray
    #: Number of product bits that individually flagged, per operation.
    error_bits: np.ndarray
    #: Gating sequence: one entry per *clock cycle*; True = input
    #: registers enabled (new operand latched), False = stalled.
    gating_enable: List[bool]
    #: Indicator output after each observation window.
    indicator_trace: List[bool]
    #: Total clock cycles consumed.
    total_cycles: float


@dataclasses.dataclass
class StructuralValidation:
    """Outcome of a behavioral-vs-structural comparison."""

    num_ops: int
    decisions_match: bool
    errors_match: bool
    latency_match: bool
    mismatched_ops: np.ndarray

    @property
    def ok(self) -> bool:
        return (
            self.decisions_match
            and self.errors_match
            and self.latency_match
        )


class StructuralArchitecture:
    """The architecture with a gate-level AHL and per-bit Razor bank."""

    def __init__(self, architecture: AgingAwareMultiplier):
        self.architecture = architecture
        nl, _ = ahl_netlist(architecture.width, architecture.skip)
        self._ahl_netlist = nl
        self._ahl_circuit = CompiledCircuit(nl, architecture.technology)

    def decide(
        self, operands: np.ndarray, aging: bool
    ) -> np.ndarray:
        """One-cycle flags from the structural AHL netlist."""
        operands = np.asarray(operands, dtype=np.uint64)
        n = operands.shape[0]
        constant = np.full(n, int(aging), dtype=np.uint64)
        result = self._ahl_circuit.run(
            {
                "x": operands,
                "aging": constant,
                "q": np.zeros(n, dtype=np.uint64),
            }
        )
        return result.outputs["one_cycle"].astype(bool)

    def run(
        self,
        md: np.ndarray,
        mr: np.ndarray,
        years: float = 0.0,
    ) -> StructuralRunResult:
        """Cycle-accurate run with structural decisions and per-bit Razor."""
        arch = self.architecture
        md = np.asarray(md, dtype=np.uint64)
        mr = np.asarray(mr, dtype=np.uint64)
        if md.shape != mr.shape or md.ndim != 1 or md.size == 0:
            raise SimulationError("md and mr must be equal-length 1-D arrays")

        circuit = arch.factory.circuit(years)
        stream = circuit.run(
            {"md": md, "mr": mr}, collect_bit_arrivals=True
        )
        arrivals = stream.bit_arrivals["p"]  # (2m, n)
        cycle = arch.cycle_ns
        late_bits = arrivals > cycle  # per-bit Razor flags
        over_budget = stream.delays > 2.0 * cycle
        # The degrade policy's slow retry: detection plus a fallback
        # issue capped at max_fallback_cycles.
        retry_cycles = arch.config.razor_penalty_cycles + np.minimum(
            np.ceil(stream.delays / cycle),
            float(arch.config.max_fallback_cycles),
        )

        judged = arch.judged_operand(md, mr)
        indicator = AgingIndicator(arch.config)

        n = md.size
        window = arch.config.indicator_window
        penalty = arch.config.razor_penalty_cycles
        one_cycle = np.empty(n, dtype=bool)
        errors = np.zeros(n, dtype=bool)
        error_bits = np.zeros(n, dtype=np.int64)
        gating_enable: List[bool] = []
        indicator_trace: List[bool] = []
        total_cycles = 0.0

        for start in range(0, n, window):
            stop = min(start + window, n)
            aging = indicator.aged if arch.adaptive else False
            flags = self.decide(judged[start:stop], aging)
            window_late_bits = late_bits[:, start:stop]
            window_late = window_late_bits.any(axis=0)
            window_over = over_budget[start:stop]
            err = (flags & window_late) | (~flags & window_over)

            one_cycle[start:stop] = flags
            errors[start:stop] = err
            error_bits[start:stop] = window_late_bits.sum(axis=0)

            base = np.where(flags, 1.0 + (flags & window_late) * penalty, 2.0)
            cycles = np.where(
                window_over, retry_cycles[start:stop], base
            )
            total_cycles += float(cycles.sum())

            # Reconstruct the !gating sequence: a one-cycle pattern
            # enables the input registers every cycle; a two-cycle
            # pattern stalls them for exactly one cycle.
            for flag in flags:
                gating_enable.append(True)
                if not flag:
                    gating_enable.append(False)

            indicator.record_window(stop - start, int(err.sum()))
            indicator_trace.append(indicator.aged)

        return StructuralRunResult(
            one_cycle=one_cycle,
            errors=errors,
            error_bits=error_bits,
            gating_enable=gating_enable,
            indicator_trace=indicator_trace,
            total_cycles=total_cycles,
        )


def validate_against_behavioral(
    architecture: AgingAwareMultiplier,
    md: np.ndarray,
    mr: np.ndarray,
    years: float = 0.0,
) -> StructuralValidation:
    """Run both models on one stream and compare decision-for-decision."""
    behavioral = architecture.run_patterns(md, mr, years=years)
    structural = StructuralArchitecture(architecture).run(
        md, mr, years=years
    )
    decisions = np.asarray(behavioral.one_cycle) == structural.one_cycle
    errors = np.asarray(behavioral.errors) == structural.errors
    latency = (
        abs(behavioral.report.total_cycles - structural.total_cycles)
        < 1e-9
    )
    mismatched = np.nonzero(~(decisions & errors))[0]
    return StructuralValidation(
        num_ops=int(np.asarray(md).size),
        decisions_match=bool(decisions.all()),
        errors_match=bool(errors.all()),
        latency_match=bool(latency),
        mismatched_ops=mismatched,
    )
