"""Structural netlist mutations for variant sweeps.

A :class:`Mutation` rewrites one existing cell of a parent netlist --
swap its type (same arity), rewire its input pins, or both -- while
keeping the net numbering, port map and cell indexing untouched.
:func:`apply_mutations` materializes a child :class:`Netlist` that is
*structurally aligned* with its parent: same ``num_nets``, same cell
count, same per-index output nets.  That alignment is exactly what
:func:`repro.timing.delta.diff_netlists` requires to compute a cone
delta, so mutants built here always take the incremental fast path.

Mutations deliberately cannot add or remove cells, nets or ports:
those edits renumber nets and invalidate every parent artifact
(value planes, arrival tensors, stress profiles), defeating the point
of incremental evaluation.  Build such variants from scratch instead.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from ..errors import NetlistError
from .netlist import CONST0, CONST1, Cell, Netlist


@dataclasses.dataclass(frozen=True)
class Mutation:
    """Rewrite one cell in place.

    Attributes:
        cell_index: Index of the cell to rewrite.
        cell_type: Replacement library type name (arity must match the
            replacement pin list -- or the old pins when ``inputs`` is
            None).
        inputs: Replacement input net ids in pin order, or None to keep
            the cell's existing pins.
    """

    cell_index: int
    cell_type: str
    inputs: Optional[Tuple[int, ...]] = None

    def site_id(self) -> str:
        """Deterministic identity (mirrors fault-site ids) used for
        artifact-store keys and sweep records."""
        if self.inputs is None:
            return "retype:c%d:%s" % (self.cell_index, self.cell_type)
        pins = ",".join(str(net) for net in self.inputs)
        return "rewire:c%d:%s:%s" % (self.cell_index, self.cell_type, pins)


def retype(cell_index: int, type_name: str) -> Mutation:
    """Swap a cell's type, keeping its pins (e.g. ``AND2 -> OR2``)."""
    return Mutation(cell_index, type_name)


def tie_low(cell_index: int) -> Mutation:
    """Replace a cell with a buffer of the constant-0 rail (column /
    partial-product truncation in approximate-multiplier sweeps)."""
    return Mutation(cell_index, "BUF", (CONST0,))


def tie_high(cell_index: int) -> Mutation:
    """Replace a cell with a buffer of the constant-1 rail."""
    return Mutation(cell_index, "BUF", (CONST1,))


def apply_mutations(
    parent: Netlist, mutations: Sequence[Mutation]
) -> Netlist:
    """A child netlist with ``mutations`` applied to ``parent``.

    The child shares no mutable state with the parent but is
    structurally aligned with it (same nets, ports, cell slots).  The
    parent is never modified.

    Raises:
        NetlistError: Out-of-range cell index, unknown type, arity
            mismatch, invalid input net, or two mutations targeting the
            same cell.
    """
    by_index: Dict[int, Mutation] = {}
    for mutation in mutations:
        if not 0 <= mutation.cell_index < len(parent.cells):
            raise NetlistError(
                "mutation targets cell %d but netlist has %d cells"
                % (mutation.cell_index, len(parent.cells))
            )
        if mutation.cell_index in by_index:
            raise NetlistError(
                "two mutations target cell %d" % mutation.cell_index
            )
        by_index[mutation.cell_index] = mutation

    child = Netlist.__new__(Netlist)
    child.name = parent.name
    child.library = parent.library
    child._net_names = list(parent._net_names)
    child.cells = list(parent.cells)
    child.input_ports = parent.input_ports.__class__(parent.input_ports)
    child.output_ports = parent.output_ports.__class__(parent.output_ports)
    child._driver = dict(parent._driver)
    child._input_nets = set(parent._input_nets)
    child._levelized = None
    child._levels = None
    child._validated = False
    child.group_enables = dict(parent.group_enables)

    num_nets = len(parent._net_names)
    for index, mutation in by_index.items():
        old = parent.cells[index]
        cell_type = parent.library.get(mutation.cell_type)
        inputs = (
            old.inputs if mutation.inputs is None
            else tuple(int(net) for net in mutation.inputs)
        )
        if len(inputs) != cell_type.num_inputs:
            raise NetlistError(
                "%s takes %d inputs, mutation of cell %d supplies %d"
                % (cell_type.name, cell_type.num_inputs, index, len(inputs))
            )
        for net in inputs:
            if not 0 <= net < num_nets:
                raise NetlistError(
                    "mutation of cell %d uses invalid net %d" % (index, net)
                )
        child.cells[index] = Cell(
            index=old.index,
            cell_type=cell_type,
            inputs=inputs,
            output=old.output,
            name=old.name,
            group=old.group,
        )
    return child
