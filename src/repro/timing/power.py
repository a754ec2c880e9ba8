"""Power and energy-delay-product model (paper Figs. 26-27, panels b/c).

Two components, both tied to the technology card:

* **dynamic**: ``E = 0.5 * Vdd^2 * C_unit * switched_caps`` per operation,
  with switching inside bypassed full-adder groups already frozen by the
  power pass (:func:`repro.timing.replay.build_switched_caps`) -- this is
  where the bypassing multipliers' power win over the plain array
  multiplier comes from;
* **leakage**: subthreshold current falls exponentially with the BTI
  threshold-voltage shift, which is why the paper's measured power
  *decreases* year over year while delay increases.

Sequential overhead (input flip-flops, Razor flip-flops at the outputs)
enters as per-cycle flip-flop energy so the comparison between plain and
adaptive designs is fair, exactly as Section IV-E describes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from ..config import DEFAULT_TECHNOLOGY, Technology
from ..errors import SimulationError
from ..nets.area import transistor_count
from ..nets.cells import DFF_TRANSISTORS, RAZOR_FF_TRANSISTORS
from ..nets.netlist import Netlist

#: Energy per clocked flip-flop bit per cycle, in unit caps switched
#: (clock load + internal nodes; a DFF toggles its clock network every
#: cycle regardless of data activity).
DFF_CAPS_PER_CYCLE = 1.6
#: Razor flip-flops add the shadow latch and comparator to the clock load.
RAZOR_CAPS_PER_CYCLE = 2.9


@dataclasses.dataclass(frozen=True)
class PowerReport:
    """Average power and energy figures for one design at one age."""

    name: str
    dynamic_watts: float
    leakage_watts: float
    sequential_watts: float
    energy_per_op_joules: float
    avg_latency_ns: float

    @property
    def total_watts(self) -> float:
        return self.dynamic_watts + self.leakage_watts + self.sequential_watts

    @property
    def edp_joule_ns(self) -> float:
        """Energy-delay product: energy per operation x average latency."""
        return self.energy_per_op_joules * self.avg_latency_ns


def power_report(
    netlist: Netlist,
    switched_caps: Optional[np.ndarray],
    avg_latency_ns: float,
    technology: Technology = DEFAULT_TECHNOLOGY,
    mean_delta_vth: float = 0.0,
    input_ff_bits: int = 0,
    output_ff_bits: int = 0,
    razor_bits: int = 0,
    cycles_per_op: float = 1.0,
    name: str = "",
) -> PowerReport:
    """Build a :class:`PowerReport` from a stimulus's switched
    capacitance.

    Args:
        netlist: The combinational design (supplies the leakage weight).
        switched_caps: Per-pattern switched capacitance (unit caps): the
            power pass's :func:`~repro.timing.replay.build_switched_caps`,
            or a :meth:`~repro.timing.engine.CompiledCircuit.run`
            result's ``switched_caps``.  It depends on no delay, so one
            array serves every aging point of the design.
        avg_latency_ns: Average latency per operation (from the
            architecture simulation; sets the power averaging window).
        technology: Voltage/cap/leakage card.
        mean_delta_vth: Workload-average BTI threshold shift in volts
            (lowers leakage as the circuit ages).
        input_ff_bits / output_ff_bits / razor_bits: Sequential elements
            clocked every cycle around the combinational core.
        cycles_per_op: Average clock cycles per operation (variable-
            latency designs clock their flip-flops on every cycle, not
            every operation).

    Raises:
        SimulationError: A non-positive latency or cycle count, or no
            switched capacitance (``None``, as a replayed stream
            carries).
    """
    if avg_latency_ns <= 0:
        raise SimulationError("avg_latency_ns must be positive")
    if cycles_per_op <= 0:
        raise SimulationError("cycles_per_op must be positive")
    if switched_caps is None:
        raise SimulationError(
            "no switched capacitance: price it with CompiledCircuit.run"
            " or the power pass (repro.timing.replay.build_switched_caps)"
        )

    cap_unit_farads = technology.unit_cap_ff * 1e-15
    half_cvv = 0.5 * cap_unit_farads * technology.vdd**2

    mean_caps = float(switched_caps.mean()) if switched_caps.size else 0.0
    dynamic_energy_per_op = half_cvv * mean_caps

    seq_caps_per_cycle = (
        (input_ff_bits + output_ff_bits) * DFF_CAPS_PER_CYCLE
        + razor_bits * RAZOR_CAPS_PER_CYCLE
    )
    sequential_energy_per_op = half_cvv * seq_caps_per_cycle * cycles_per_op

    transistors = (
        transistor_count(netlist)
        + (input_ff_bits + output_ff_bits) * DFF_TRANSISTORS
        + razor_bits * RAZOR_FF_TRANSISTORS
    )
    leak_per_transistor = technology.leak_na * 1e-9
    leakage_watts = (
        transistors
        * leak_per_transistor
        * technology.vdd
        * math.exp(-mean_delta_vth / technology.subthreshold_swing)
    )

    seconds_per_op = avg_latency_ns * 1e-9
    dynamic_watts = dynamic_energy_per_op / seconds_per_op
    sequential_watts = sequential_energy_per_op / seconds_per_op
    energy_per_op = (
        dynamic_energy_per_op
        + sequential_energy_per_op
        + leakage_watts * seconds_per_op
    )
    return PowerReport(
        name=name or netlist.name,
        dynamic_watts=dynamic_watts,
        leakage_watts=leakage_watts,
        sequential_watts=sequential_watts,
        energy_per_op_joules=energy_per_op,
        avg_latency_ns=avg_latency_ns,
    )
