"""Combinational netlist builder with ports, validation and levelization.

A :class:`Netlist` is a directed graph of single-output library cells wired
by integer *nets*.  Nets ``0`` and ``1`` are the constant-0 and constant-1
rails.  Sequential elements (input flip-flops, Razor flip-flops) live at
the architecture level (:mod:`repro.core`), so every netlist here is purely
combinational -- which is what lets the timing engines levelize it.

The builder exposes one generic :meth:`Netlist.add_cell` plus small
per-gate helpers (``xor2``, ``mux2``, ...) that allocate the output net and
return it, keeping the arithmetic generators readable::

    nl = Netlist("half-adder")
    a, = nl.add_input_port("a", 1)
    b, = nl.add_input_port("b", 1)
    nl.add_output_port("sum", [nl.xor2(a, b)])
    nl.add_output_port("carry", [nl.and2(a, b)])
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import CombinationalLoopError, NetlistError
from .cells import CellLibrary, CellType, STANDARD_LIBRARY

#: Net id of the constant-0 rail.
CONST0 = 0
#: Net id of the constant-1 rail.
CONST1 = 1


@dataclasses.dataclass(frozen=True)
class Cell:
    """One placed instance of a library cell.

    Attributes:
        index: Position in the netlist's cell list (stable identifier).
        cell_type: The library :class:`CellType`.
        inputs: Input net ids, in pin order.  For ``MUX2`` the order is
            ``(d0, d1, select)``; for ``TRIBUF`` it is ``(din, enable)``.
        output: The single output net id.
        name: Optional instance name (used in exports and diagnostics).
        group: Optional group tag.  The power model uses groups to tie a
            bypassed full-adder's internal gates to its enable signal.
    """

    index: int
    cell_type: CellType
    inputs: Tuple[int, ...]
    output: int
    name: str = ""
    group: Optional[str] = None


class CellColumns(NamedTuple):
    """Per-cell library attributes as read-only arrays indexed by cell
    index (see :meth:`Netlist.cell_columns`)."""

    delay_units: np.ndarray
    pmos_fraction: np.ndarray
    transistors: np.ndarray


@dataclasses.dataclass(frozen=True)
class Port:
    """A named bundle of nets at the netlist boundary (LSB first)."""

    name: str
    nets: Tuple[int, ...]
    is_input: bool

    @property
    def width(self) -> int:
        return len(self.nets)


class Netlist:
    """A combinational gate-level netlist.

    Args:
        name: Human-readable design name.
        library: Cell library to draw cell types from.
    """

    def __init__(self, name: str, library: CellLibrary = STANDARD_LIBRARY):
        self.name = name
        self.library = library
        self._net_names: List[Optional[str]] = [None, None]  # const rails
        self.cells: List[Cell] = []
        self.input_ports: "collections.OrderedDict[str, Port]" = (
            collections.OrderedDict()
        )
        self.output_ports: "collections.OrderedDict[str, Port]" = (
            collections.OrderedDict()
        )
        self._driver: Dict[int, int] = {}  # net id -> cell index
        self._input_nets: set = set()
        self._levelized: Optional[List[Cell]] = None
        self._levels: Optional[np.ndarray] = None
        self._validated = False
        #: Group tag -> enable net id.  Cells tagged with a group are
        #: understood to be frozen (no switching) whenever the enable net
        #: is 0; the power model uses this to credit bypassing savings.
        self.group_enables: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Net and port management
    # ------------------------------------------------------------------

    @property
    def const0(self) -> int:
        """Net id of the constant-0 rail."""
        return CONST0

    @property
    def const1(self) -> int:
        """Net id of the constant-1 rail."""
        return CONST1

    @property
    def num_nets(self) -> int:
        return len(self._net_names)

    @property
    def version(self) -> Tuple[int, int, int, int, int]:
        """Mutation counter for memo invalidation.  The builder is
        append-only (cells, nets, ports and group enables are added,
        never edited or removed), so the element counts uniquely
        identify the structural revision."""
        return (
            len(self.cells),
            len(self._net_names),
            len(self.input_ports),
            len(self.output_ports),
            len(self.group_enables),
        )

    def new_net(self, name: Optional[str] = None) -> int:
        """Allocate a fresh net id."""
        net = len(self._net_names)
        self._net_names.append(name)
        return net

    def new_nets(self, count: int, prefix: str = "") -> List[int]:
        """Allocate ``count`` fresh nets, named ``prefix0..prefixN-1``."""
        if count < 0:
            raise NetlistError("net count must be non-negative")
        return [
            self.new_net("%s%d" % (prefix, i) if prefix else None)
            for i in range(count)
        ]

    def net_name(self, net: int) -> str:
        """Best-effort display name for a net."""
        self._check_net(net)
        if net == CONST0:
            return "const0"
        if net == CONST1:
            return "const1"
        name = self._net_names[net]
        return name if name is not None else "n%d" % net

    def add_input_port(self, name: str, width: int) -> List[int]:
        """Declare a ``width``-bit input port; returns its nets, LSB first."""
        if name in self.input_ports or name in self.output_ports:
            raise NetlistError("duplicate port name %r" % name)
        if width < 1:
            raise NetlistError("port width must be >= 1")
        nets = [self.new_net("%s[%d]" % (name, i)) for i in range(width)]
        self.input_ports[name] = Port(name, tuple(nets), is_input=True)
        self._input_nets.update(nets)
        return nets

    def add_output_port(self, name: str, nets: Sequence[int]) -> Port:
        """Declare an output port over existing ``nets`` (LSB first)."""
        if name in self.input_ports or name in self.output_ports:
            raise NetlistError("duplicate port name %r" % name)
        if not nets:
            raise NetlistError("output port %r must have >= 1 net" % name)
        for net in nets:
            self._check_net(net)
        port = Port(name, tuple(nets), is_input=False)
        self.output_ports[name] = port
        return port

    def driver_of(self, net: int) -> Optional[Cell]:
        """Return the cell driving ``net``, or None for PIs/constants."""
        self._check_net(net)
        idx = self._driver.get(net)
        return self.cells[idx] if idx is not None else None

    def is_primary_input(self, net: int) -> bool:
        return net in self._input_nets

    def _check_net(self, net: int) -> None:
        if not isinstance(net, (int,)) or isinstance(net, bool):
            raise NetlistError("net id must be an int, got %r" % (net,))
        if not 0 <= net < len(self._net_names):
            raise NetlistError(
                "net id %d out of range (have %d nets)"
                % (net, len(self._net_names))
            )

    # ------------------------------------------------------------------
    # Cell placement
    # ------------------------------------------------------------------

    def add_cell(
        self,
        type_name: str,
        inputs: Sequence[int],
        output: Optional[int] = None,
        name: str = "",
        group: Optional[str] = None,
    ) -> int:
        """Place a cell; returns its output net id.

        Args:
            type_name: Library cell name, e.g. ``"NAND2"``.
            inputs: Input net ids in pin order.
            output: Existing net to drive, or None to allocate a fresh one.
            name: Optional instance name.
            group: Optional group tag (see :class:`Cell`).

        Raises:
            UnknownCellError: ``type_name`` is not in the library.
            NetlistError: wrong pin count, bad net id, or the output net
                already has a driver.
        """
        cell_type = self.library.get(type_name)
        inputs = tuple(inputs)
        if len(inputs) != cell_type.num_inputs:
            raise NetlistError(
                "cell %s expects %d inputs, got %d"
                % (type_name, cell_type.num_inputs, len(inputs))
            )
        for net in inputs:
            self._check_net(net)
        if output is None:
            output = self.new_net()
        else:
            self._check_net(output)
        if output in (CONST0, CONST1):
            raise NetlistError("cannot drive a constant rail")
        if output in self._driver:
            raise NetlistError(
                "net %s already driven by cell %d"
                % (self.net_name(output), self._driver[output])
            )
        if output in self._input_nets:
            raise NetlistError(
                "net %s is a primary input and cannot be driven"
                % self.net_name(output)
            )
        index = len(self.cells)
        cell = Cell(index, cell_type, inputs, output, name=name, group=group)
        self.cells.append(cell)
        self._driver[output] = index
        self._levelized = None
        self._validated = False
        return output

    def set_group_enable(self, group: str, enable_net: int) -> None:
        """Associate ``group``-tagged cells with an enable net.

        While the enable net is 0 the group's cells are treated as frozen
        by the power model (tri-state bypassing, Section II-A/B).
        """
        self._check_net(enable_net)
        if group in self.group_enables:
            raise NetlistError("group %r already has an enable" % group)
        self.group_enables[group] = enable_net

    # Small readable helpers for the arithmetic generators. ------------

    def buf(self, a: int, **kw) -> int:
        return self.add_cell("BUF", [a], **kw)

    def inv(self, a: int, **kw) -> int:
        return self.add_cell("INV", [a], **kw)

    def and2(self, a: int, b: int, **kw) -> int:
        return self.add_cell("AND2", [a, b], **kw)

    def or2(self, a: int, b: int, **kw) -> int:
        return self.add_cell("OR2", [a, b], **kw)

    def nand2(self, a: int, b: int, **kw) -> int:
        return self.add_cell("NAND2", [a, b], **kw)

    def nor2(self, a: int, b: int, **kw) -> int:
        return self.add_cell("NOR2", [a, b], **kw)

    def xor2(self, a: int, b: int, **kw) -> int:
        return self.add_cell("XOR2", [a, b], **kw)

    def xnor2(self, a: int, b: int, **kw) -> int:
        return self.add_cell("XNOR2", [a, b], **kw)

    def mux2(self, d0: int, d1: int, select: int, **kw) -> int:
        """2:1 mux -- output is ``d0`` when ``select`` is 0, else ``d1``."""
        return self.add_cell("MUX2", [d0, d1, select], **kw)

    def tribuf(self, din: int, enable: int, **kw) -> int:
        """Tri-state buffer -- drives ``din`` when enabled, else holds."""
        return self.add_cell("TRIBUF", [din, enable], **kw)

    def and3(self, a: int, b: int, c: int, **kw) -> int:
        return self.add_cell("AND3", [a, b, c], **kw)

    def or3(self, a: int, b: int, c: int, **kw) -> int:
        return self.add_cell("OR3", [a, b, c], **kw)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def levelize(self) -> List[Cell]:
        """Topologically order the cells (inputs before consumers).

        Returns a cached list; raises :class:`CombinationalLoopError` if
        the netlist has a combinational cycle.  The same Kahn pass fixes
        each cell's level (see :meth:`cell_levels`).
        """
        if self._levelized is not None:
            return self._levelized
        indegree = [0] * len(self.cells)
        level = [0] * len(self.cells)
        consumers: Dict[int, List[int]] = collections.defaultdict(list)
        for cell in self.cells:
            for net in cell.inputs:
                driver = self._driver.get(net)
                if driver is not None:
                    indegree[cell.index] += 1
                    consumers[driver].append(cell.index)
        ready = collections.deque(
            i for i, degree in enumerate(indegree) if degree == 0
        )
        order: List[Cell] = []
        while ready:
            idx = ready.popleft()
            order.append(self.cells[idx])
            above = level[idx] + 1
            for succ in consumers[idx]:
                if level[succ] < above:
                    level[succ] = above
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.cells):
            stuck = [i for i, degree in enumerate(indegree) if degree > 0]
            raise CombinationalLoopError(stuck)
        levels = np.array(level, dtype=np.intp)
        levels.setflags(write=False)
        self._levelized = order
        self._levels = levels
        return order

    def cell_levels(self) -> np.ndarray:
        """Topological level of every cell, indexed by cell index.

        A cell's level is one more than the deepest level among the
        cells driving its inputs; a cell fed only by primary inputs and
        constant rails sits at level 0.  Cells of one level never feed
        each other, which is what lets STA and the SoA plan evaluate a
        level at a time.  Read-only; computed by :meth:`levelize`.
        """
        if getattr(self, "_levels", None) is None:
            # A netlist pickled before levels were kept has a cached
            # order but no levels: redo the pass.
            self._levelized = None
        self.levelize()
        return self._levels

    def cell_columns(self) -> CellColumns:
        """The cell-type attributes the analyses read, one array per
        attribute (read-only, indexed by cell index).

        Memoized on the instance keyed by :attr:`version`, so a netlist
        grown afterwards gets fresh columns; a mutated child netlist is
        a new instance and starts without them.
        """
        cached = getattr(self, "_columns", None)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        types = [cell.cell_type for cell in self.cells]
        columns = CellColumns(
            delay_units=np.array(
                [t.delay_units for t in types], dtype=float
            ),
            pmos_fraction=np.array(
                [t.pmos_fraction for t in types], dtype=float
            ),
            transistors=np.array(
                [t.transistors for t in types], dtype=np.int64
            ),
        )
        for column in columns:
            column.setflags(write=False)
        self._columns = (self.version, columns)
        return columns

    def validate(self) -> None:
        """Check structural invariants; raises :class:`NetlistError`.

        * every output-port net is driven, a primary input, or a constant;
        * every cell input is driven, a primary input, or a constant;
        * the netlist levelizes (no combinational loops).

        Memoized: once a netlist validates it stays valid until the
        next ``add_cell``, so analysis passes (STA, compilation,
        replay) revalidating the same netlist pay nothing.
        """
        if self._validated:
            return
        for port in self.output_ports.values():
            for net in port.nets:
                if (
                    net not in self._driver
                    and net not in self._input_nets
                    and net not in (CONST0, CONST1)
                ):
                    raise NetlistError(
                        "output port %r bit %s is undriven"
                        % (port.name, self.net_name(net))
                    )
        for cell in self.cells:
            for net in cell.inputs:
                if (
                    net not in self._driver
                    and net not in self._input_nets
                    and net not in (CONST0, CONST1)
                ):
                    raise NetlistError(
                        "cell %d (%s) input %s is undriven"
                        % (cell.index, cell.cell_type.name, self.net_name(net))
                    )
        self.levelize()
        self._validated = True

    def stats(self) -> Dict[str, int]:
        """Cell counts by type plus ``nets`` and ``cells`` totals."""
        counts: Dict[str, int] = collections.Counter(
            cell.cell_type.name for cell in self.cells
        )
        counts["cells"] = len(self.cells)
        counts["nets"] = self.num_nets
        return dict(counts)

    def cells_in_group(self, group: str) -> List[Cell]:
        """All cells tagged with ``group``."""
        return [cell for cell in self.cells if cell.group == group]

    def max_logic_depth(self) -> int:
        """Longest cell chain from any input to any output (unit depth)."""
        levels = self.cell_levels()
        return int(levels.max()) + 1 if levels.size else 0

    def __repr__(self) -> str:
        return "Netlist(%r, cells=%d, nets=%d)" % (
            self.name,
            len(self.cells),
            self.num_nets,
        )


def bits_to_int(bits: Iterable[int]) -> int:
    """Recombine LSB-first bits into an integer (port helper)."""
    value = 0
    for position, bit in enumerate(bits):
        if bit not in (0, 1):
            raise NetlistError("bit values must be 0 or 1, got %r" % (bit,))
        value |= bit << position
    return value


def int_to_bits(value: int, width: int) -> List[int]:
    """Split an integer into ``width`` LSB-first bits (port helper)."""
    if value < 0:
        raise NetlistError("value must be non-negative, got %d" % value)
    if width < 1:
        raise NetlistError("width must be >= 1")
    if value >> width:
        raise NetlistError(
            "value %d does not fit in %d bits" % (value, width)
        )
    return [(value >> i) & 1 for i in range(width)]
