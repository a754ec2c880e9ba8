"""Static timing analysis (value-independent worst case).

The fixed-latency designs of the paper clock at the critical-path delay;
:class:`StaticTiming` computes that delay by propagating worst-case
arrival times topologically, ignoring logic values (every input can be
late, every path can be sensitized).  One levelized pass serves every
entry point: it walks the netlist's (level, arity) groups and, per
group, takes the max over the pin rows of a ``(num_nets, k)`` arrival
matrix and adds ``fresh * scale`` -- ``k`` = 1 for
:class:`StaticTiming`, one column per delay-scale corner for
:func:`critical_delays`.  It also extracts the critical path
itself, which the aging experiments use to report which cells dominate
degradation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import DEFAULT_TECHNOLOGY, Technology
from ..errors import SimulationError
from ..nets.netlist import Cell, Netlist


def _level_groups(netlist: Netlist):
    """``[(cells, pins, outputs), ...]``: the cells of each (level,
    arity) group as index arrays -- ``cells`` ``(g,)`` cell indices,
    ``pins`` ``(g, arity)`` input nets, ``outputs`` ``(g,)`` output
    nets -- in level order.

    Memoized on the netlist instance keyed by ``Netlist.version`` (as
    ``netlist_fingerprint`` is), so every STA of one netlist shares it.
    """
    cached = getattr(netlist, "_sta_groups", None)
    if cached is not None and cached[0] == netlist.version:
        return cached[1]
    members: Dict[Tuple[int, int], List[Cell]] = {}
    levels = netlist.cell_levels()
    for cell in netlist.cells:
        key = (int(levels[cell.index]), len(cell.inputs))
        members.setdefault(key, []).append(cell)
    groups = [
        (
            np.array([c.index for c in cells], dtype=np.intp),
            np.array([c.inputs for c in cells], dtype=np.intp),
            np.array([c.output for c in cells], dtype=np.intp),
        )
        for _, cells in sorted(members.items())
    ]
    netlist._sta_groups = (netlist.version, groups)
    return groups


def _forward_arrivals(
    netlist: Netlist, technology: Technology, scales: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The one longest-path pass: ``(arrivals, delays)``.

    ``scales`` is ``(k, num_cells)``.  ``delays`` is the ``(num_cells,
    k)`` matrix ``fresh * scale`` and ``arrivals`` the ``(num_nets, k)``
    worst-case arrival matrix (0 on primary inputs and rails).  Each
    (level, arity) group takes the max over its pin rows and adds its
    delays; levels run in order, so every pin row is final when read.
    """
    fresh = netlist.cell_columns().delay_units * technology.time_unit_ns
    delays = np.ascontiguousarray((fresh * scales).T)
    arrivals = np.zeros((netlist.num_nets, scales.shape[0]))
    for cells, pins, outputs in _level_groups(netlist):
        arrivals[outputs] = arrivals[pins].max(axis=1) + delays[cells]
    return arrivals, delays


def _output_nets(netlist: Netlist) -> List[int]:
    return [net for port in netlist.output_ports.values() for net in port.nets]


@dataclasses.dataclass
class StaticTiming:
    """Worst-case arrival analysis of one netlist."""

    netlist: Netlist
    technology: Technology = DEFAULT_TECHNOLOGY
    delay_scale: Optional[np.ndarray] = None

    def __post_init__(self):
        self.netlist.validate()
        scale = self.delay_scale
        num_cells = len(self.netlist.cells)
        if scale is None:
            scale = np.ones(num_cells)
        else:
            scale = np.asarray(scale, dtype=float)
            if scale.shape != (num_cells,):
                raise SimulationError(
                    "delay_scale must have one entry per cell"
                )
        arrivals, delays = _forward_arrivals(
            self.netlist, self.technology, scale[None, :]
        )
        self._arrival = arrivals[:, 0]
        #: Per-cell delay in ns, indexed by cell index.
        self.cell_delays_ns = delays[:, 0]

    def arrival(self, net: int) -> float:
        """Worst-case arrival time of ``net`` in ns (0 for inputs)."""
        if 0 <= net < self._arrival.shape[0]:
            return float(self._arrival[net])
        return 0.0

    @property
    def critical_delay(self) -> float:
        """Worst-case delay to any primary output, in ns."""
        return float(
            self._arrival[_output_nets(self.netlist)].max(initial=0.0)
        )

    def critical_path(self) -> List[Cell]:
        """Cells along the worst path, input side first."""
        worst_net = None
        worst = -1.0
        for net in _output_nets(self.netlist):
            if self.arrival(net) > worst:
                worst = self.arrival(net)
                worst_net = net
        path: List[Cell] = []
        net = worst_net
        while net is not None:
            cell = self.netlist.driver_of(net)
            if cell is None:
                break
            path.append(cell)
            # Step back through the latest-arriving input.
            net = max(cell.inputs, key=self.arrival, default=None)
            if net is not None and self.arrival(net) == 0.0:
                net = None
        path.reverse()
        return path


def critical_path(
    netlist: Netlist,
    technology: Technology = DEFAULT_TECHNOLOGY,
    delay_scale: Optional[np.ndarray] = None,
) -> Tuple[float, List[Cell]]:
    """Convenience wrapper: (critical delay ns, cells along the path)."""
    sta = StaticTiming(netlist, technology, delay_scale)
    return sta.critical_delay, sta.critical_path()


def critical_delays(
    netlist: Netlist,
    technology: Technology = DEFAULT_TECHNOLOGY,
    delay_scales: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Critical-path delays for many delay-scale corners at once.

    ``delay_scales`` is ``(k, num_cells)`` (or ``(num_cells,)`` for a
    single corner); the result is ``(k,)`` ns.  Entry ``j`` is
    bit-identical to ``StaticTiming(netlist, technology,
    delay_scales[j]).critical_delay`` -- the same pass with the corner
    axis ``k`` wide -- which is what the aging-trend sweeps (Fig. 7)
    rely on.
    """
    netlist.validate()
    num_cells = len(netlist.cells)
    if delay_scales is None:
        scales = np.ones((1, num_cells))
    else:
        scales = np.asarray(delay_scales, dtype=float)
        if scales.ndim == 1:
            scales = scales[None, :]
        if scales.ndim != 2 or scales.shape[1] != num_cells:
            raise SimulationError(
                "delay_scales must be (k, num_cells) with num_cells=%d, "
                "got %r" % (num_cells, np.shape(delay_scales))
            )
    arrivals, _ = _forward_arrivals(netlist, technology, scales)
    return arrivals[_output_nets(netlist)].max(axis=0, initial=0.0)
