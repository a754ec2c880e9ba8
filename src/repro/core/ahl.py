"""Adaptive hold logic (Section III-A, Fig. 12).

The AHL bundles two judging blocks -- Skip-``n`` and Skip-``n+1`` -- a
mux steered by the aging indicator, and the gating flip-flop that stalls
the input registers for one cycle on two-cycle patterns.  Behaviorally
the AHL is no object: an architecture judges its whole stream under
both blocks (a ``(2, n)`` flag matrix) and the one control loop,
:func:`repro.core.architecture.run_control_loop`, lets the aging
indicator pick each window's row.  This module holds what is left: the
structural netlist (:func:`ahl_netlist`) for the Fig. 25 area
accounting and for inspection, and the legal Skip-``n`` range
(:func:`skip_candidates`).

A *traditional* variable-latency design (T-VLCB / T-VLRB in Figs. 19-24)
is the same hold logic without adaptivity: built with ``adaptive=False``
it only ever judges with the Skip-``n`` block.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..config import DEFAULT_SIM_CONFIG
from ..errors import ConfigError
from ..nets.cells import CellLibrary, STANDARD_LIBRARY
from ..nets.netlist import Netlist
from .judging import JudgingBlock, compare_ge_const, judging_netlist, popcount_nets


def skip_candidates(width: int) -> range:
    """Every AHL-legal Skip-n for a ``width``-bit judged operand.

    The adaptive pair needs Skip-``n+1`` to fit alongside Skip-``n``
    (the check :class:`repro.core.architecture.AgingAwareMultiplier`
    makes when it is built), so candidates run ``0 .. width - 1``.
    The Monte Carlo guard-band tuner scans exactly this range
    (:mod:`repro.montecarlo.analytics`).
    """
    if width < 1:
        raise ConfigError("width must be >= 1, got %r" % (width,))
    return range(0, width)


def ahl_netlist(
    width: int,
    skip: int,
    library: CellLibrary = STANDARD_LIBRARY,
    name: Optional[str] = None,
) -> Tuple[Netlist, int]:
    """Structural AHL for area accounting.

    Returns ``(netlist, sequential_bits)``: the combinational netlist
    (shared popcount feeding both threshold comparators, the selection
    mux and the gating OR of Fig. 12) and the number of flip-flop bits
    the AHL needs on top (gating DFF, aging-indicator flag, error and
    operation counters sized by the indicator window).
    """
    JudgingBlock(width, skip + 1)  # validate both thresholds fit
    nl = Netlist(name or "ahl-%d-skip%d" % (width, skip), library)
    x = nl.add_input_port("x", width)
    aging = nl.add_input_port("aging", 1)[0]
    q_state = nl.add_input_port("q", 1)[0]

    inverted = [nl.inv(bit, name="zinv%d" % i) for i, bit in enumerate(x)]
    zeros = popcount_nets(nl, inverted)
    relaxed = compare_ge_const(nl, zeros, skip)
    strict = compare_ge_const(nl, zeros, skip + 1)
    chosen = nl.mux2(relaxed, strict, aging, name="block_mux")
    gating = nl.or2(chosen, q_state, name="gate_or")
    nl.add_output_port("one_cycle", [chosen])
    nl.add_output_port("gating_n", [gating])
    nl.validate()

    window_bits = max(1, math.ceil(math.log2(DEFAULT_SIM_CONFIG.indicator_window + 1)))
    sequential_bits = (
        1  # gating D flip-flop
        + 1  # aging-indicator output flag
        + window_bits  # error counter
        + window_bits  # operation counter
    )
    return nl, sequential_bits


__all__ = [
    "ahl_netlist",
    "judging_netlist",
    "skip_candidates",
]
