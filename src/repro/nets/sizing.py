"""Gate-sizing transforms (paper Section IV-A).

"If both do not match, methods, such as transistor sizing or using
another skip number, can be used to adjust the multiplier's cycle
period."  This module implements the sizing half of that sentence as a
*delay-scale* transform: upsizing a cell by factor ``k`` divides its
delay by ``k`` (stronger drive) at the cost of ``k``-times its
transistors (area and leakage).

Because :class:`~repro.timing.CompiledCircuit` already takes per-cell
delay factors, sizing composes freely with the aging factors -- the
sizing ablation bench exercises exactly that.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional

import numpy as np

from ..config import DEFAULT_TECHNOLOGY, Technology
from ..errors import ConfigError
from ..timing.sta import StaticTiming
from .netlist import Netlist


@dataclasses.dataclass(frozen=True)
class SizingPlan:
    """A per-cell drive-strength assignment.

    Attributes:
        netlist_name: Design this plan belongs to.
        factors: Per-cell drive factors (1.0 = minimum size).
    """

    netlist_name: str
    factors: np.ndarray

    def __post_init__(self):
        if np.any(self.factors < 1.0):
            raise ConfigError("drive factors must be >= 1.0")

    def delay_scale(self) -> np.ndarray:
        """Delay factors for :class:`~repro.timing.CompiledCircuit`."""
        return 1.0 / self.factors

    def extra_transistors(self, netlist: Netlist) -> int:
        """Area cost of the plan over minimum sizing."""
        if netlist.name != self.netlist_name:
            raise ConfigError("plan belongs to %r" % self.netlist_name)
        base = netlist.cell_columns().transistors
        return int(np.round((self.factors - 1.0) @ base))

    def num_upsized(self) -> int:
        return int(np.sum(self.factors > 1.0))


def uniform_sizing(netlist: Netlist, factor: float) -> SizingPlan:
    """Upsize every cell by ``factor`` (global overdesign -- the naive
    aging guard-band the paper's Section I criticizes)."""
    if factor < 1.0:
        raise ConfigError("factor must be >= 1.0")
    return SizingPlan(
        netlist.name, np.full(len(netlist.cells), float(factor))
    )


def upsize_cells(
    netlist: Netlist, cell_indices: Iterable[int], factor: float
) -> SizingPlan:
    """Upsize a chosen subset of cells."""
    if factor < 1.0:
        raise ConfigError("factor must be >= 1.0")
    factors = np.ones(len(netlist.cells))
    for index in cell_indices:
        if not 0 <= index < len(netlist.cells):
            raise ConfigError("cell index %d out of range" % index)
        factors[index] = factor
    return SizingPlan(netlist.name, factors)


def upsize_critical_paths(
    netlist: Netlist,
    factor: float = 1.5,
    slack_fraction: float = 0.9,
    technology: Technology = DEFAULT_TECHNOLOGY,
    base_scale: Optional[np.ndarray] = None,
) -> SizingPlan:
    """Upsize every cell lying on a near-critical path.

    Cells whose worst-case path (arrival + required) exceeds
    ``slack_fraction`` of the critical delay get ``factor`` drive --
    the classic targeted-sizing move to compress the cycle period
    without paying the uniform-overdesign area bill.
    """
    if not 0.0 < slack_fraction <= 1.0:
        raise ConfigError("slack_fraction must lie in (0, 1]")
    if factor < 1.0:
        raise ConfigError("factor must be >= 1.0")
    sta = StaticTiming(netlist, technology, base_scale)
    order = netlist.levelize()
    arrival = sta.arrival
    delay_of = sta.cell_delays_ns.tolist()

    # Backward: longest downstream continuation from each cell output.
    downstream: Dict[int, float] = {}
    for cell in reversed(order):
        own = delay_of[cell.index]
        tail = downstream.get(cell.output, 0.0)
        through = own + tail
        for net in cell.inputs:
            downstream[net] = max(downstream.get(net, 0.0), through)

    critical = sta.critical_delay
    if critical <= 0:
        return SizingPlan(netlist.name, np.ones(len(netlist.cells)))

    threshold = slack_fraction * critical
    factors = np.ones(len(netlist.cells))
    for cell in order:
        input_arrival = max(
            (arrival(net) for net in cell.inputs), default=0.0
        )
        path = input_arrival + delay_of[cell.index] + downstream.get(
            cell.output, 0.0
        )
        if path >= threshold:
            factors[cell.index] = factor
    return SizingPlan(netlist.name, factors)
