"""Transistor-count area accounting (paper Fig. 25).

The paper reports area as transistor counts, normalized to the array
multiplier.  A design's area is the sum of its combinational cells plus
the sequential overhead the architecture adds around it:

* plain designs (AM, FLCB, FLRB): input DFFs for both operands and output
  DFFs for the product;
* adaptive designs (A-VLCB, A-VLRB): input DFFs, *Razor* flip-flops on the
  product, and the AHL circuit (judging blocks + aging indicator + mux +
  gating DFF), whose structural netlist supplies its own count.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from .cells import DFF_TRANSISTORS, RAZOR_FF_TRANSISTORS
from .netlist import Netlist


@dataclasses.dataclass(frozen=True)
class AreaReport:
    """Transistor breakdown of one design variant."""

    name: str
    combinational: int
    flip_flops: int
    razor_flip_flops: int
    ahl: int

    @property
    def total(self) -> int:
        return (
            self.combinational
            + self.flip_flops
            + self.razor_flip_flops
            + self.ahl
        )

    def normalized_to(self, baseline: "AreaReport") -> float:
        """Area ratio vs a baseline report (Fig. 25 normalizes to AM)."""
        return self.total / baseline.total

    def breakdown(self) -> Dict[str, int]:
        return {
            "combinational": self.combinational,
            "flip_flops": self.flip_flops,
            "razor_flip_flops": self.razor_flip_flops,
            "ahl": self.ahl,
            "total": self.total,
        }


def transistor_count(netlist: Netlist) -> int:
    """Total transistor count of a netlist's combinational cells."""
    return int(netlist.cell_columns().transistors.sum())


def area_report(
    netlist: Netlist,
    name: str = "",
    input_ff_bits: int = 0,
    output_ff_bits: int = 0,
    razor_bits: int = 0,
    ahl_netlist: Netlist = None,
    extra_dff_bits: int = 0,
) -> AreaReport:
    """Build an :class:`AreaReport` for a design variant.

    Args:
        netlist: The multiplier's combinational netlist.
        name: Report label; defaults to the netlist name.
        input_ff_bits: Plain DFF bits at the inputs.
        output_ff_bits: Plain DFF bits at the outputs.
        razor_bits: Razor flip-flop bits at the outputs.
        ahl_netlist: Structural AHL netlist, if the variant has one.
        extra_dff_bits: Additional sequential bits inside the AHL
            (gating DFF, aging-indicator counter bits).
    """
    ahl_transistors = 0
    if ahl_netlist is not None:
        ahl_transistors = transistor_count(ahl_netlist)
    ahl_transistors += extra_dff_bits * DFF_TRANSISTORS
    return AreaReport(
        name=name or netlist.name,
        combinational=transistor_count(netlist),
        flip_flops=(input_ff_bits + output_ff_bits) * DFF_TRANSISTORS,
        razor_flip_flops=razor_bits * RAZOR_FF_TRANSISTORS,
        ahl=ahl_transistors,
    )
