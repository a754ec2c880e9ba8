"""Levelized structure-of-arrays (SoA) execution plan.

A per-cell stream loop pays a fixed Python + numpy-dispatch cost per
*cell*; for a 16x16 bypassing array
that is thousands of tiny allocations per chunk.  This module compiles
the levelized cell list into a **bucketed SoA plan** evaluated a whole
(level, opcode) bucket at a time:

* cells are grouped into topological **levels**
  (:meth:`repro.nets.Netlist.cell_levels`: one more than the deepest
  level among a cell's driver cells; primary inputs and constant rails
  sit below level 0), so every bucket's inputs were fully produced by
  earlier levels and all cells inside a bucket are independent;
* within a level, cells are **bucketed by opcode** into flat index
  arrays -- a ``(num_pins, B)`` input-net gather matrix, a ``(B,)``
  output-net scatter vector, and per-cell delay / capacitance / cell-
  index columns -- so one batched ``gather -> logic kernel -> scatter``
  evaluates all ``B`` cells against a single ``(num_nets, num_words)``
  value matrix.

All cells sharing an opcode have the same pin count (opcodes encode the
cell arity), which is what makes the rectangular gather matrix valid.

**Hooks stay in their bucket**: the plan is built from the cells
alone, so one plan serves the stream run, the values-only pass,
arrival replay and the delta engine.  A cell whose *output* net carries
a fault hook is evaluated with its bucket; the engine then applies the
hook to that cell's row before change detection (cells of one level
never feed each other, so this is exact).  Input-port hooks rewrite the
port rows before any bucket runs, and arrival replay consumes recorded,
already-faulted masks.

Bucket evaluation applies the elementwise kernels of
:mod:`repro.timing.logic` to stacked ``(B, n)`` rows, so every per-cell
float/int op sequence is the one a cell-at-a-time walk would run --
bucketing changes the iteration order, not the arithmetic.  (The only
aggregate that sums *across* cells, switched capacitance, is
accumulated per-bucket and may therefore differ from a per-cell sum by
float association; everything per-net/per-pattern is bit-identical.)
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from ..nets.netlist import CONST0, CONST1
from . import logic

__all__ = [
    "LevelBucket",
    "PlanRows",
    "SoAPlan",
    "bucket_level",
    "build_plan_rows",
    "build_soa_plan",
]


@dataclasses.dataclass
class LevelBucket:
    """All same-opcode cells of one topological level.

    Attributes:
        opcode: The shared cell opcode.
        positions: ``(B,)`` levelized cell positions (aux-offset axis).
        pins: ``(num_pins, B)`` input-net gather indices.
        outputs: ``(B,)`` output-net scatter indices (each net has one
            driver, so scatters never collide).
        cell_indices: ``(B,)`` netlist cell indices (delay-scale axis).
        fresh_delays: ``(B,)`` unscaled cell delays (ns).
        delays: ``(B,)`` compiled (delay-scaled) cell delays (ns).
        caps: ``(B,)`` per-cell load capacitances.
    """

    opcode: int
    positions: np.ndarray
    pins: np.ndarray
    outputs: np.ndarray
    cell_indices: np.ndarray
    fresh_delays: np.ndarray
    delays: np.ndarray
    caps: np.ndarray

    @property
    def size(self) -> int:
        return int(self.outputs.shape[0])


@dataclasses.dataclass
class SoAPlan:
    """Bucketed levels: ``levels[d]`` holds the opcode buckets of level
    ``d`` (insertion order: first-seen opcode first, cells inside a
    bucket in levelized order); every cell sits in exactly one bucket.
    """

    levels: List[List[LevelBucket]]


def build_soa_plan(cells, levels: np.ndarray) -> SoAPlan:
    """Compile levelized ``_CompiledCell`` s into an :class:`SoAPlan`.

    Args:
        cells: The circuit's levelized compiled cells (topological
            order -- every driver precedes its consumers).
        levels: The netlist's per-cell-index levels
            (:meth:`repro.nets.Netlist.cell_levels`).
    """
    members: List[List] = [
        [] for _ in range(int(levels.max()) + 1 if levels.size else 0)
    ]
    for compiled in cells:
        members[levels[compiled.index]].append(compiled)
    return SoAPlan(levels=[bucket_level(cells_of) for cells_of in members])


def bucket_level(members) -> List[LevelBucket]:
    """Bucket one level's compiled cells by opcode: first-seen opcode
    first, members in the order given (levelized position order)."""
    per_opcode: Dict[int, List] = {}
    for compiled in members:
        per_opcode.setdefault(compiled.opcode, []).append(compiled)
    packed = []
    for opcode, group in per_opcode.items():
        packed.append(
            LevelBucket(
                opcode=opcode,
                positions=np.array(
                    [c.position for c in group], dtype=np.intp
                ),
                pins=np.array(
                    [c.inputs for c in group], dtype=np.intp
                ).T.copy(),
                outputs=np.array([c.output for c in group], dtype=np.intp),
                cell_indices=np.array(
                    [c.index for c in group], dtype=np.intp
                ),
                fresh_delays=np.array(
                    [c.fresh_delay_ns for c in group], dtype=float
                ),
                delays=np.array([c.delay_ns for c in group], dtype=float),
                caps=np.array([c.cap for c in group], dtype=float),
            )
        )
    return packed


@dataclasses.dataclass
class PlanRows:
    """The plan-row numbering of a circuit's nets, shared by the value
    pass and the arrival replay.

    The constant rails take rows 0 and 1 and the primary-input nets the
    next ``num_inputs`` rows, port after port in port order (so every
    input port is one contiguous row range); then each bucket's output
    nets take one contiguous row range, bucket after bucket in plan
    order.  A bucket's rows are ``spans[b]``, its cells in bucket order,
    so per-row matrices write a bucket's results as one slice.

    Attributes:
        base: Rows of the rails and primary inputs (``2 +
            num_inputs``); cell outputs start here.
        net_row: ``(num_nets,)`` plan row of every net (-1 for a net
            that is neither a rail, a primary input nor a cell output).
        row_net: ``(base + num_cells,)`` net of every plan row.
        buckets: The plan's buckets, level after level.
        spans: ``(r0, r1)`` row range of every bucket, in plan order.
        pin_rows: Every bucket's ``(num_pins, B)`` pin plan rows.
        cell_indices: ``(num_cells,)`` netlist cell index of each cell
            row (row ``base + i`` is entry ``i``).
        fresh_delays: ``(num_cells,)`` unscaled delay of each cell row.
        aux_offsets: ``(num_cells + 1,)`` first row of each levelized
            cell position's aux masks (:func:`logic.aux_masks`) in a
            value plane's ``aux_packed``; the last entry is the total.
    """

    base: int
    net_row: np.ndarray
    row_net: np.ndarray
    buckets: List[LevelBucket]
    spans: List["tuple[int, int]"]
    pin_rows: List[np.ndarray]
    cell_indices: np.ndarray
    fresh_delays: np.ndarray
    aux_offsets: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.row_net.shape[0])


def build_plan_rows(plan: SoAPlan, netlist) -> PlanRows:
    """Number ``netlist``'s nets in plan rows (see :class:`PlanRows`).

    Every pin net is a rail, a primary input or the output of a cell at
    an earlier level, so no entry of ``pin_rows`` is -1.
    """
    inputs = [
        net for port in netlist.input_ports.values() for net in port.nets
    ]
    buckets = [bucket for level in plan.levels for bucket in level]
    fixed = [CONST0, CONST1] + inputs
    row_net = np.concatenate(
        [np.array(fixed, dtype=np.intp)]
        + [bucket.outputs for bucket in buckets]
    )
    net_row = np.full(netlist.num_nets, -1, dtype=np.intp)
    net_row[row_net] = np.arange(row_net.shape[0])
    spans = []
    row = len(fixed)
    counts = np.zeros(row_net.shape[0] - row, dtype=np.int64)
    for bucket in buckets:
        spans.append((row, row + bucket.size))
        row += bucket.size
        counts[bucket.positions] = logic.aux_count(
            bucket.opcode, bucket.pins.shape[0]
        )
    aux_offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=aux_offsets[1:])
    return PlanRows(
        base=len(fixed),
        net_row=net_row,
        row_net=row_net,
        buckets=buckets,
        spans=spans,
        pin_rows=[net_row[bucket.pins] for bucket in buckets],
        cell_indices=np.concatenate(
            [np.zeros(0, dtype=np.intp)]
            + [bucket.cell_indices for bucket in buckets]
        ),
        fresh_delays=np.concatenate(
            [np.zeros(0)] + [bucket.fresh_delays for bucket in buckets]
        ),
        aux_offsets=aux_offsets,
    )
