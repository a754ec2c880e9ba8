"""Incremental cone-delta evaluation for near-identical netlist variants.

Design-space exploration loops (approximate-cell swaps, column
truncation, per-cell delay nudges) evaluate thousands of *mutants* of
one parent design.  A full evaluation pays, per mutant, a netlist
compile (:class:`~repro.timing.engine.CompiledCircuit` +
:func:`~repro.timing.soa.build_soa_plan`), a full value pass and a full
arrival replay -- even when a handful of cells changed.  This module
makes the *delta* the unit of work:

* :func:`diff_netlists` structurally diffs a parent/child pair that is
  cell-slot aligned (same nets, ports, cell count -- what
  :func:`repro.nets.mutate.apply_mutations` produces), yielding a
  :class:`NetlistDelta` with the changed cells and their forward output
  cone (the same reverse-reachability notion as
  :meth:`CompiledCircuit.output_reach_mask`, walked forward);

* :func:`patch_compiled` patches the parent's levelized SoA plan in
  place of a full ``build_soa_plan``: only the levels containing
  changed cells are re-bucketed, every other level list is shared;

* :class:`DeltaBase` + :func:`replay_delta` re-simulate **only the
  cone**: values, may/aux masks and arrivals outside the cone are
  reused from the parent's recorded plane and arrival tensor, cone
  cells are re-evaluated through the exact same
  :mod:`repro.timing.logic` kernels the engine uses.

Byte-identity contract (asserted by ``tests/test_delta.py`` and the CI
``delta-smoke`` job): ``replay_delta`` reproduces, bit for bit, the
``outputs``, ``delays`` and ``bit_arrivals`` of a from-scratch
:func:`evaluate_full` on the child netlist -- for both delay modes and
any positive ``(k, num_cells)`` scale matrix.  ``switched_caps`` is
*excluded* from the delta surface: transition densities propagate
globally and are already the documented float-association exception
between kernels (see DESIGN.md section 16).

Base planes must be built with ``initial=None`` (settling pattern ==
pattern 0), which makes every recorded may-mask equal to
``changed_matrix(values, None)`` on the reported stream -- the identity
the cone value pass relies on to reproduce recorded flags exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DeltaError
from ..nets.netlist import CONST0, CONST1, Netlist
from . import logic
from .engine import CompiledCircuit, _CompiledCell
from .replay import ArrivalReplay, ValuePlane, _PlaneRecorder
from .replay import _active_arrival, _aux_count, build_value_plane
from .soa import LevelBucket, SoAPlan
from .value_cache import netlist_fingerprint

__all__ = [
    "DeltaBase",
    "DeltaPlane",
    "DeltaResult",
    "NetlistDelta",
    "build_delta_plane",
    "diff_netlists",
    "evaluate_full",
    "patch_compiled",
    "replay_delta",
]


# ----------------------------------------------------------------------
# Structural diffing
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class NetlistDelta:
    """Structural difference between an aligned parent/child pair.

    Attributes:
        parent_fingerprint / child_fingerprint: Structural hashes (see
            :func:`repro.timing.value_cache.netlist_fingerprint`).
        changed_cells: Cell indices whose (type, pins, group) differ.
        cone_cells: Forward closure of the changed cells -- every cell
            whose value stream can differ between parent and child.
        affected_nets: Output nets of the cone cells.
        num_cells / num_nets: Shared sizes of the aligned pair.
    """

    parent_fingerprint: str
    child_fingerprint: str
    changed_cells: Tuple[int, ...]
    cone_cells: Tuple[int, ...]
    affected_nets: frozenset
    num_cells: int
    num_nets: int

    @property
    def is_empty(self) -> bool:
        return not self.changed_cells

    @property
    def cone_fraction(self) -> float:
        """Cone size relative to the whole netlist (0.0 when empty)."""
        if not self.num_cells:
            return 0.0
        return len(self.cone_cells) / self.num_cells

    def fingerprint(self) -> str:
        """Deterministic identity of this structural step, used for
        value-plane cache-key lineage (see
        :func:`repro.timing.value_cache.plane_cache_key`)."""
        digest = hashlib.sha256()
        digest.update(self.parent_fingerprint.encode("ascii"))
        digest.update(b"->")
        digest.update(self.child_fingerprint.encode("ascii"))
        return digest.hexdigest()


def _forward_cone(
    netlist: Netlist, seed_cells: Sequence[int]
) -> Tuple[List[int], frozenset]:
    """Forward closure of ``seed_cells``: every cell reachable through
    driver -> consumer edges, plus the set of their output nets."""
    consumers: Dict[int, List[int]] = {}
    for cell in netlist.cells:
        for net in cell.inputs:
            consumers.setdefault(net, []).append(cell.index)
    cone = set(int(index) for index in seed_cells)
    queue = list(cone)
    while queue:
        index = queue.pop()
        for consumer in consumers.get(netlist.cells[index].output, ()):
            if consumer not in cone:
                cone.add(consumer)
                queue.append(consumer)
    affected = frozenset(netlist.cells[index].output for index in cone)
    return sorted(cone), affected


def diff_netlists(parent: Netlist, child: Netlist) -> NetlistDelta:
    """Structurally diff an aligned parent/child netlist pair.

    Alignment (same net numbering, same cell slots with identical
    output nets, same ports and group enables) is required: it is what
    lets parent artifacts -- value planes, arrival tensors, stress
    profiles -- be indexed by child net/cell ids directly.
    :func:`repro.nets.mutate.apply_mutations` produces aligned children
    by construction.

    Raises:
        DeltaError: The pair is not aligned.
    """
    if parent.num_nets != child.num_nets:
        raise DeltaError(
            "netlists are not aligned: parent has %d nets, child %d"
            % (parent.num_nets, child.num_nets)
        )
    if len(parent.cells) != len(child.cells):
        raise DeltaError(
            "netlists are not aligned: parent has %d cells, child %d"
            % (len(parent.cells), len(child.cells))
        )
    for name, ports in (
        ("input", (parent.input_ports, child.input_ports)),
        ("output", (parent.output_ports, child.output_ports)),
    ):
        ours, theirs = ports
        if list(ours) != list(theirs) or any(
            ours[p].nets != theirs[p].nets for p in ours
        ):
            raise DeltaError(
                "netlists are not aligned: %s ports differ" % name
            )
    if parent.group_enables != child.group_enables:
        raise DeltaError(
            "netlists are not aligned: group enables differ"
        )

    parent_fp = netlist_fingerprint(parent)
    child_fp = netlist_fingerprint(child)
    changed: List[int] = []
    if parent_fp != child_fp:
        for old, new in zip(parent.cells, child.cells):
            if old.output != new.output:
                raise DeltaError(
                    "netlists are not aligned: cell %d drives net %d in"
                    " the parent but net %d in the child"
                    % (old.index, old.output, new.output)
                )
            if (
                old.cell_type.name != new.cell_type.name
                or old.inputs != new.inputs
                or old.group != new.group
            ):
                changed.append(old.index)
    if changed:
        cone, affected = _forward_cone(child, changed)
    else:
        cone, affected = [], frozenset()
    return NetlistDelta(
        parent_fingerprint=parent_fp,
        child_fingerprint=child_fp,
        changed_cells=tuple(changed),
        cone_cells=tuple(cone),
        affected_nets=affected,
        num_cells=len(parent.cells),
        num_nets=parent.num_nets,
    )


# ----------------------------------------------------------------------
# Incremental plan patching
# ----------------------------------------------------------------------


def _plan_levels(plan: SoAPlan, num_cells: int) -> np.ndarray:
    """Per-position topological level, recovered from a bucketed plan."""
    levels = np.zeros(num_cells, dtype=np.intp)
    for depth, bucket_list in enumerate(plan.levels):
        for bucket in bucket_list:
            levels[bucket.positions] = depth
    for depth, scalars in enumerate(plan.scalar_levels):
        for compiled in scalars:
            levels[compiled.position] = depth
    return levels


def _rebuild_level(members) -> List[LevelBucket]:
    """Re-bucket one level's compiled cells, replicating
    :func:`~repro.timing.soa.build_soa_plan` exactly (first-seen opcode
    bucket order, members in levelized position order)."""
    per_opcode: Dict[int, List] = {}
    for compiled in members:
        per_opcode.setdefault(compiled.opcode, []).append(compiled)
    packed = []
    for opcode, group in per_opcode.items():
        pins = np.array(
            [c.inputs for c in group], dtype=np.intp
        ).T.copy()
        packed.append(
            LevelBucket(
                opcode=opcode,
                positions=np.array(
                    [c.position for c in group], dtype=np.intp
                ),
                pins=pins,
                outputs=np.array(
                    [c.output for c in group], dtype=np.intp
                ),
                cell_indices=np.array(
                    [c.index for c in group], dtype=np.intp
                ),
                fresh_delays=np.array(
                    [c.fresh_delay_ns for c in group], dtype=float
                ),
                delays=np.array(
                    [c.delay_ns for c in group], dtype=float
                ),
                caps=np.array([c.cap for c in group], dtype=float),
            )
        )
    return packed


def patch_compiled(
    parent_circuit: CompiledCircuit,
    child: Netlist,
    delta: Optional[NetlistDelta] = None,
) -> CompiledCircuit:
    """A compiled child circuit obtained by patching the parent's plan.

    Changed cells keep their parent levelized position and topological
    level; only the levels containing a changed cell are re-bucketed,
    every other level's bucket list is shared with the parent plan.
    This is valid because per-net engine results are independent of
    bucketing order (an asserted repo property) -- a cell only needs
    every driver evaluated at a *strictly lower* level, which is
    checked per changed input pin.

    The patched circuit carries a ``delta_lineage`` tuple (the parent's
    lineage plus this delta's fingerprint) that
    :func:`~repro.timing.value_cache.plane_cache_key` folds into cache
    keys, so a patched plan can never collide with its parent's cached
    plane.

    Raises:
        DeltaError: The parent carries fault hooks, the pair is not
            aligned, or a rewired pin is produced at (or above) the
            changed cell's kept level -- fall back to a from-scratch
            :class:`CompiledCircuit` in that case.
    """
    parent = parent_circuit.netlist
    if parent_circuit.fault_hooks:
        raise DeltaError(
            "cannot patch a hooked circuit; compile the child with its"
            " fault hooks from scratch"
        )
    if delta is None:
        delta = diff_netlists(parent, child)
    else:
        child_fp = netlist_fingerprint(child)
        if (
            delta.parent_fingerprint != netlist_fingerprint(parent)
            or delta.child_fingerprint != child_fp
        ):
            raise DeltaError(
                "delta does not connect this parent/child pair"
            )
    child.validate()
    plan = parent_circuit.soa_value_plan()
    cells = list(parent_circuit._cells)
    num_cells = len(cells)
    levels = _plan_levels(plan, num_cells)
    pos_by_index = {c.index: c.position for c in cells}
    driver_pos = {c.output: c.position for c in cells}
    unit = parent_circuit.technology.time_unit_ns
    scale = parent_circuit.delay_scale
    input_nets = parent._input_nets

    touched_levels = set()
    for index in delta.changed_cells:
        position = pos_by_index[index]
        level = int(levels[position])
        new_cell = child.cells[index]
        for pin in new_cell.inputs:
            if pin in (CONST0, CONST1) or pin in input_nets:
                continue
            producer = driver_pos.get(pin)
            if producer is None or int(levels[producer]) >= level:
                raise DeltaError(
                    "cell %d rewired to net %d produced at level >= its"
                    " kept level %d; patching would break levelization"
                    % (index, pin, level)
                )
        fresh = new_cell.cell_type.delay_units * unit
        cells[position] = _CompiledCell(
            position=position,
            opcode=new_cell.cell_type.opcode,
            inputs=new_cell.inputs,
            output=new_cell.output,
            delay_ns=fresh * float(scale[index]),
            cap=new_cell.cell_type.load_caps,
            group=new_cell.group,
            index=index,
            fresh_delay_ns=fresh,
        )
        touched_levels.add(level)

    new_levels = list(plan.levels)
    for level in touched_levels:
        positions = sorted(
            int(p)
            for bucket in plan.levels[level]
            for p in bucket.positions
        )
        new_levels[level] = _rebuild_level(
            [cells[p] for p in positions]
        )

    patched = CompiledCircuit.__new__(CompiledCircuit)
    patched.kernel = parent_circuit.kernel
    patched.netlist = child
    patched.technology = parent_circuit.technology
    patched.mode = parent_circuit.mode
    patched.fault_hooks = {}
    patched.delay_scale = scale
    patched._cells = cells
    patched._protected = set(parent_circuit._protected)
    patched._last_use = {}
    for compiled in cells:
        for net in compiled.inputs:
            patched._last_use[net] = compiled.position
    patched.num_nets = child.num_nets
    patched._reach_masks = None
    patched._cell_delays = None
    plan = SoAPlan(
        levels=new_levels,
        scalar_levels=plan.scalar_levels,
        grouped=plan.grouped,
        num_levels=plan.num_levels,
        num_bucketed=plan.num_bucketed,
        num_scalar=plan.num_scalar,
    )
    patched._soa_value_plan = plan
    patched._soa_replay_plan = plan
    patched.delta_lineage = getattr(
        parent_circuit, "delta_lineage", ()
    ) + (delta.fingerprint(),)
    return patched


# ----------------------------------------------------------------------
# Value planes with captured values
# ----------------------------------------------------------------------


@dataclasses.dataclass
class DeltaPlane(ValuePlane):
    """A :class:`ValuePlane` that additionally records every net's
    settled-value stream, so a cone re-evaluation can read boundary
    values without re-running the parent.

    ``val_packed`` rows mirror ``may_packed``; constant rails are never
    recorded (:meth:`value` special-cases them)."""

    val_packed: Optional[np.ndarray] = None

    def value(self, net: int) -> np.ndarray:
        """Unpacked settled-value stream (uint8 0/1) for one net."""
        if net == CONST0:
            return np.zeros(self.num_patterns, dtype=np.uint8)
        if net == CONST1:
            return np.ones(self.num_patterns, dtype=np.uint8)
        return np.unpackbits(
            self.val_packed[net], count=self.num_patterns
        )


class _DeltaRecorder(_PlaneRecorder):
    """Plane recorder that also captures per-net value streams.

    ``wants_values`` opts into the engine's guarded ``net_values`` /
    ``bucket_values`` callbacks (plain plane builds skip the capture
    entirely)."""

    wants_values = True

    def __init__(self, circuit: CompiledCircuit, num_patterns: int):
        super().__init__(circuit, num_patterns)
        nbytes = (num_patterns + 7) // 8
        self.values = np.zeros(
            (circuit.num_nets, nbytes), dtype=np.uint8
        )

    def net_values(self, net: int, vals: np.ndarray) -> None:
        self._pack_into(self.values[net], vals)

    def bucket_values(self, nets, vals: np.ndarray) -> None:
        packed = np.packbits(vals[:, self._lo:], axis=1)
        width = packed.shape[1]
        self.values[nets, self._byte:self._byte + width] = packed


def build_delta_plane(
    circuit: CompiledCircuit,
    stimulus: Dict[str, Sequence[int]],
    collect_net_stats: bool = False,
    chunk_size: "Optional[int | str]" = "auto",
    key: Optional[str] = None,
) -> DeltaPlane:
    """One value pass capturing a replayable-and-diffable
    :class:`DeltaPlane`.

    ``initial`` is pinned to None (settling pattern == pattern 0): the
    cone value pass reproduces recorded may-masks via
    ``changed_matrix(values, None)``, which only holds under that
    settling convention.

    Raises:
        DeltaError: The circuit carries fault hooks (faulted planes are
            hook-specific; delta bases must be pristine).
    """
    if circuit.fault_hooks:
        raise DeltaError(
            "delta base planes require a hook-free circuit"
        )
    lengths = {np.asarray(v).shape[0] for v in stimulus.values()}
    if len(lengths) != 1:
        raise DeltaError("stimulus arrays must be equally long")
    (n,) = lengths
    if isinstance(chunk_size, int) and chunk_size % 8:
        chunk_size += 8 - chunk_size % 8
    recorder = _DeltaRecorder(circuit, n)
    result = circuit.run(
        stimulus,
        initial=None,
        collect_net_stats=collect_net_stats,
        chunk_size=chunk_size,
        _recorder=recorder,
    )
    return DeltaPlane(
        num_patterns=result.num_patterns,
        num_nets=circuit.num_nets,
        num_cells=len(circuit._cells),
        mode=circuit.mode,
        may_packed=recorder.may,
        aux_packed=recorder.aux,
        aux_offsets=recorder.aux_offsets,
        outputs=result.outputs,
        switched_caps=result.switched_caps,
        signal_prob=result.signal_prob,
        toggle_counts=result.toggle_counts,
        key=key,
        val_packed=recorder.values,
    )


# ----------------------------------------------------------------------
# Full-arrival tensor (the reusable base)
# ----------------------------------------------------------------------


def _replay_all_arrivals(
    circuit: CompiledCircuit, plane: ValuePlane, scales: np.ndarray
) -> np.ndarray:
    """Dense ``(num_nets, n, k)`` arrival tensor for every net.

    The same bucketed sparse pass as
    :meth:`~repro.timing.replay.ArrivalReplay._replay_soa`, but keeping
    *all* per-net rows instead of harvesting only output ports: rows of
    quiet entries, primary inputs and constant rails stay exactly 0.0
    (the quiet-zero invariant), so a cone replay can gather any
    boundary net's arrivals with no special-casing.  All arithmetic is
    elementwise per (cell, pattern, corner) entry, so the tensor is
    bit-identical to the chunked port replay.  Callers size ``n * k``
    (the tensor is the product, ~``num_nets * n * k * 8`` bytes).
    """
    plan = circuit.soa_replay_plan()
    n = plane.num_patterns
    k = scales.shape[0]
    full = np.zeros((circuit.num_nets, n, k))
    for bucket_list in plan.levels:
        for bucket in bucket_list:
            outs = bucket.outputs
            pins = bucket.pins
            may = np.unpackbits(
                plane.may_packed[outs], axis=1, count=n
            ).view(bool)
            rows, cols = np.nonzero(may)
            if not rows.size:
                continue
            count = _aux_count(bucket.opcode, pins.shape[0])
            if count:
                aux_rows = plane.aux_offsets[bucket.positions]
                aux = tuple(
                    np.unpackbits(
                        plane.aux_packed[aux_rows + lane],
                        axis=1,
                        count=n,
                    ).view(bool)[rows, cols]
                    for lane in range(count)
                )
            else:
                aux = ()
            arrs = [
                full[pins[j][rows], cols] for j in range(pins.shape[0])
            ]
            delay = (
                bucket.fresh_delays[:, None]
                * scales[:, bucket.cell_indices].T
            )
            out = _active_arrival(bucket.opcode, aux, arrs, delay[rows])
            full[outs[rows], cols] = out
    return full


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclasses.dataclass
class DeltaResult:
    """Outputs and per-corner delays of one variant evaluation.

    The byte-identity surface of the delta machinery: ``outputs``,
    ``delays`` and ``bit_arrivals`` are bit-identical however the
    variant was evaluated (``method`` records which path ran --
    ``"base"``: unchanged, parent result; ``"delta"``: cone replay;
    ``"full"``: from-scratch fallback).  Switched capacitance is
    deliberately absent (see the module docstring).

    Attributes:
        outputs: Output port name -> uint64 settled values, ``(n,)``.
        delays: ``(k, n)`` per-corner per-pattern path delays (ns).
        delay_scales: The ``(k, num_cells)`` scale matrix priced.
        num_patterns: Stream length ``n``.
        bit_arrivals: Optional port -> ``(width, k, n)`` matrices.
        delta: The structural delta (None on ``"full"`` evaluations of
            an unrelated netlist).
        value_cone_cells / arrival_cone_cells: Cells re-simulated by
            the value / arrival pass (empty on ``"base"``/``"full"``).
        method: ``"base"``, ``"delta"`` or ``"full"``.
    """

    outputs: Dict[str, np.ndarray]
    delays: np.ndarray
    delay_scales: np.ndarray
    num_patterns: int
    method: str
    bit_arrivals: Optional[Dict[str, np.ndarray]] = None
    delta: Optional[NetlistDelta] = None
    value_cone_cells: Tuple[int, ...] = ()
    arrival_cone_cells: Tuple[int, ...] = ()

    @property
    def num_corners(self) -> int:
        return self.delays.shape[0]

    def max_delays(self) -> np.ndarray:
        """Per-corner worst path delay (ns), shape ``(k,)``."""
        return self.delays.max(axis=1)

    def mean_delays(self) -> np.ndarray:
        """Per-corner mean path delay (ns), shape ``(k,)``."""
        return self.delays.mean(axis=1)


def evaluate_full(
    child: Netlist,
    stimulus: Dict[str, Sequence[int]],
    delay_scales: np.ndarray,
    technology=None,
    mode: str = "inertial",
    kernel: str = "soa",
    collect_bit_arrivals: bool = False,
    chunk_size: "Optional[int | str]" = "auto",
) -> DeltaResult:
    """From-scratch comparator: compile + value pass + arrival replay.

    This is the reference the delta path must match byte for byte --
    the benchmark baseline, the CI ``cmp`` oracle and the
    ``max_cone_fraction`` fallback all run through here.
    """
    from ..config import DEFAULT_TECHNOLOGY

    circuit = CompiledCircuit(
        child,
        technology if technology is not None else DEFAULT_TECHNOLOGY,
        mode=mode,
        kernel=kernel,
    )
    plane = build_value_plane(
        circuit, stimulus, initial=None, chunk_size=chunk_size
    )
    replayed = ArrivalReplay(circuit, plane).replay(
        delay_scales, collect_bit_arrivals=collect_bit_arrivals
    )
    return DeltaResult(
        outputs=plane.outputs,
        delays=replayed.delays,
        delay_scales=replayed.delay_scales,
        num_patterns=plane.num_patterns,
        method="full",
        bit_arrivals=replayed.bit_arrivals,
    )


# ----------------------------------------------------------------------
# The reusable base + cone replay
# ----------------------------------------------------------------------


class DeltaBase:
    """Everything of a parent evaluation a cone replay can reuse.

    One value pass (with value capture) plus one all-nets arrival
    replay at the base ``(k, num_cells)`` scale matrix.  Against this
    base, :func:`replay_delta` prices an aligned child netlist --
    and/or a perturbed scale matrix -- touching only the affected cone.
    """

    def __init__(
        self,
        circuit: CompiledCircuit,
        stimulus: Dict[str, Sequence[int]],
        delay_scales: np.ndarray,
        chunk_size: "Optional[int | str]" = "auto",
    ):
        scales = np.asarray(delay_scales, dtype=float)
        if scales.ndim == 1:
            scales = scales[None, :]
        num_cells = len(circuit.netlist.cells)
        if scales.ndim != 2 or scales.shape[1] != num_cells:
            raise DeltaError(
                "delay_scales must be (num_cells,) or (k, num_cells)"
                " with num_cells=%d, got %r"
                % (num_cells, np.shape(delay_scales))
            )
        if np.any(scales <= 0):
            raise DeltaError("delay_scale entries must be positive")
        self.circuit = circuit
        self.stimulus = {
            name: np.asarray(values, dtype=np.uint64)
            for name, values in stimulus.items()
        }
        self.scales = scales
        self.plane = build_delta_plane(
            circuit, self.stimulus, chunk_size=chunk_size
        )
        self.arrivals = _replay_all_arrivals(
            circuit, self.plane, scales
        )
        self.num_patterns = self.plane.num_patterns
        self.num_cells = num_cells
        self.num_nets = circuit.num_nets
        self.delays = np.zeros((scales.shape[0], self.num_patterns))
        for port in circuit.netlist.output_ports.values():
            for net in port.nets:
                np.maximum(
                    self.delays, self.arrivals[net].T, out=self.delays
                )
        plan = circuit.soa_value_plan()
        self.level_of_position = _plan_levels(plan, num_cells)
        self.pos_by_index = {
            c.index: c.position for c in circuit._cells
        }

    @property
    def nbytes(self) -> int:
        """Approximate footprint (dominated by the arrival tensor)."""
        return self.arrivals.nbytes + self.plane.nbytes

    def result(self, collect_bit_arrivals: bool = False) -> DeltaResult:
        """The base evaluation itself as a :class:`DeltaResult`."""
        bit_arrivals = None
        if collect_bit_arrivals:
            bit_arrivals = {
                name: self.arrivals[list(port.nets)].transpose(0, 2, 1)
                for name, port in (
                    self.circuit.netlist.output_ports.items()
                )
            }
        return DeltaResult(
            outputs=self.plane.outputs,
            delays=self.delays,
            delay_scales=self.scales,
            num_patterns=self.num_patterns,
            method="base",
            bit_arrivals=bit_arrivals,
        )


def replay_delta(
    base: DeltaBase,
    child: Netlist,
    delay_scales: Optional[np.ndarray] = None,
    delta: Optional[NetlistDelta] = None,
    collect_bit_arrivals: bool = False,
    max_cone_fraction: Optional[float] = None,
) -> DeltaResult:
    """Price an aligned child netlist against a parent base.

    Re-simulates only the affected cone: the *value cone* (forward
    closure of structurally changed cells) is re-evaluated through
    :func:`logic.eval_vector` / :func:`logic.aux_masks` /
    :func:`logic.changed_matrix`; the *arrival cone* (forward closure
    of changed plus scale-perturbed cells, a superset) is re-timed
    through :func:`logic.arrival_masks` with ``(k, 1)`` delay columns.
    Everything outside a cone is gathered from the base plane / arrival
    tensor.  Bit-identical to :func:`evaluate_full` on the child.

    Args:
        delay_scales: Optional replacement scale matrix; must match the
            base's ``(k, num_cells)`` shape (None: the base scales).
        delta: Optional precomputed diff (skips re-hashing).
        max_cone_fraction: When set and the arrival cone exceeds this
            fraction of all cells, evaluate from scratch instead
            (``method="full"``) -- same bytes, different cost profile.

    Raises:
        DeltaError: Misaligned pair, mismatched scale shape, or an
            unpatchable rewire (see :func:`patch_compiled`).
    """
    parent_circuit = base.circuit
    if delay_scales is None:
        scales = base.scales
    else:
        scales = np.asarray(delay_scales, dtype=float)
        if scales.ndim == 1:
            scales = scales[None, :]
        if scales.shape != base.scales.shape:
            raise DeltaError(
                "delta replay needs the base's scale shape %r, got %r"
                % (base.scales.shape, scales.shape)
            )
        if np.any(scales <= 0):
            raise DeltaError("delay_scale entries must be positive")
    if delta is None:
        delta = diff_netlists(parent_circuit.netlist, child)
    scale_changed = np.nonzero(
        (scales != base.scales).any(axis=0)
    )[0]

    if delta.is_empty and not scale_changed.size:
        result = base.result(collect_bit_arrivals=collect_bit_arrivals)
        return dataclasses.replace(result, delta=delta)

    if delta.is_empty:
        patched = parent_circuit
    else:
        patched = patch_compiled(parent_circuit, child, delta)

    seeds = sorted(
        set(delta.changed_cells)
        | set(int(index) for index in scale_changed)
    )
    arrival_cone, _ = _forward_cone(child, seeds)
    if (
        max_cone_fraction is not None
        and len(arrival_cone) > max_cone_fraction * base.num_cells
    ):
        result = evaluate_full(
            child,
            base.stimulus,
            scales,
            technology=parent_circuit.technology,
            mode=parent_circuit.mode,
            collect_bit_arrivals=collect_bit_arrivals,
            kernel=patched.kernel,
        )
        return dataclasses.replace(result, delta=delta)

    plane = base.plane
    n = base.num_patterns
    cells = patched._cells
    pos_by_index = base.pos_by_index
    levels = base.level_of_position
    inertial = parent_circuit.mode == "inertial"

    def cone_order(indices):
        return sorted(
            (pos_by_index[index] for index in indices),
            key=lambda position: (int(levels[position]), position),
        )

    # -- value cone: settled values, may masks, aux masks --------------
    new_vals: Dict[int, np.ndarray] = {}
    new_mays: Dict[int, np.ndarray] = {}
    new_aux: Dict[int, tuple] = {}
    boundary_vals: Dict[int, np.ndarray] = {}
    boundary_mays: Dict[int, np.ndarray] = {}

    def value_row(net: int) -> np.ndarray:
        row = new_vals.get(net)
        if row is None:
            row = boundary_vals.get(net)
            if row is None:
                row = plane.value(net)
                boundary_vals[net] = row
        return row

    def may_row(net: int) -> np.ndarray:
        row = new_mays.get(net)
        if row is None:
            row = boundary_mays.get(net)
            if row is None:
                if net in (CONST0, CONST1):
                    row = np.zeros(n, dtype=bool)
                else:
                    row = plane.may(net)
                boundary_mays[net] = row
        return row

    for position in cone_order(delta.cone_cells):
        compiled = cells[position]
        in_vals = [value_row(pin) for pin in compiled.inputs]
        out_val = logic.eval_vector(compiled.opcode, in_vals)
        aux = logic.aux_masks(compiled.opcode, in_vals)
        if inertial:
            out_may = logic.changed_matrix(out_val, None)
        else:
            in_mays = [may_row(pin) for pin in compiled.inputs]
            out_may = logic.may_vector(
                compiled.opcode, in_vals, in_mays, aux
            )
        new_vals[compiled.output] = out_val
        new_mays[compiled.output] = out_may
        new_aux[position] = aux

    # -- arrival cone: re-time changed + scale-perturbed closure -------
    new_arr: Dict[int, np.ndarray] = {}

    def arrival_row(net: int) -> np.ndarray:
        row = new_arr.get(net)
        # (n, k) -> (k, n) view; boundary rows include PIs, constant
        # rails and quiet nets (all exactly 0.0 in the base tensor).
        return base.arrivals[net].T if row is None else row

    for position in cone_order(arrival_cone):
        compiled = cells[position]
        in_arrs = [arrival_row(pin) for pin in compiled.inputs]
        aux = new_aux.get(position)
        if aux is None:
            aux = plane.aux(position)
        out_may = new_mays.get(compiled.output)
        if out_may is None:
            out_may = plane.may(compiled.output)
        delay = (
            compiled.fresh_delay_ns * scales[:, compiled.index]
        )[:, None]
        new_arr[compiled.output] = logic.arrival_masks(
            compiled.opcode, aux, in_arrs, delay, out_may
        )

    # -- assemble: splice outputs, re-reduce port delays ---------------
    ports = child.output_ports
    outputs: Dict[str, np.ndarray] = {}
    for name, port in ports.items():
        if any(net in new_vals for net in port.nets):
            bits = logic.unpack_bits(plane.outputs[name], port.width)
            for lane, net in enumerate(port.nets):
                row = new_vals.get(net)
                if row is not None:
                    bits[lane] = row
            outputs[name] = logic.pack_bits(bits)
        else:
            outputs[name] = plane.outputs[name]

    delays = np.zeros_like(base.delays)
    bit_arrivals: Optional[Dict[str, np.ndarray]] = (
        {} if collect_bit_arrivals else None
    )
    for name, port in ports.items():
        rows = [arrival_row(net) for net in port.nets]
        for row in rows:
            np.maximum(delays, row, out=delays)
        if collect_bit_arrivals:
            bit_arrivals[name] = np.stack(
                [np.ascontiguousarray(row) for row in rows]
            )

    return DeltaResult(
        outputs=outputs,
        delays=delays,
        delay_scales=scales,
        num_patterns=n,
        method="delta",
        bit_arrivals=bit_arrivals,
        delta=delta,
        value_cone_cells=tuple(delta.cone_cells),
        arrival_cone_cells=tuple(arrival_cone),
    )
