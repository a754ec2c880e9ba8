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
  reused from the parent's values-only pass, value plane and arrival
  tensor; cone cells are re-evaluated through the value pass's
  :mod:`repro.timing.logic` kernels and re-timed through the replay's
  arrival rule.  A child may also
  carry value-fault hooks over the hook-free base (a *hooked child*):
  the hooked net seeds both cones, and the hook rewrites its row
  exactly where the engine does.

Byte-identity contract (asserted by ``tests/test_delta.py`` and the CI
``delta-smoke`` job): ``replay_delta`` reproduces, bit for bit, the
``outputs``, ``delays`` and ``bit_arrivals`` of a from-scratch
:func:`evaluate_full` on the child netlist -- for both delay modes and
any finite, positive ``(k, num_cells)`` scale matrix.  Nothing here
prices power: value planes hold no switched capacitance, which is the
separate power pass (:func:`repro.timing.replay.build_switched_caps`).

Base planes must be built with ``initial=None`` (settling pattern ==
pattern 0), which makes every recorded may-mask equal to
``changed_matrix(values, None)`` on the reported stream -- the identity
the cone value pass relies on to reproduce recorded flags exactly.  The
cone value pass carries the settling column at index 0 (a boundary
row's is its pattern-0 value), so a hook sees the row the engine hands
it and a change at pattern 0 keeps its flag.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DeltaError
from ..nets.netlist import CONST0, CONST1, Netlist
from . import logic
from .engine import CompiledCircuit, FaultHook, _CompiledCell
from .engine import _check_delay_scales
from .replay import ArrivalReplay, ValuePlane
from .replay import _active_arrival, build_value_plane
from .soa import SoAPlan, bucket_level
from .value_cache import netlist_fingerprint

__all__ = [
    "DeltaBase",
    "DeltaResult",
    "NetlistDelta",
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


def _consumers(netlist: Netlist) -> Dict[int, List[int]]:
    """Net id -> indices of the cells that read it (read-only).

    Memoized on the netlist instance keyed by ``Netlist.version``, as
    :meth:`Netlist.cell_columns` is, so diffing a child and replaying
    it build its map once.
    """
    cached = getattr(netlist, "_consumer_map", None)
    if cached is not None and cached[0] == netlist.version:
        return cached[1]
    consumers: Dict[int, List[int]] = {}
    for cell in netlist.cells:
        for net in cell.inputs:
            consumers.setdefault(net, []).append(cell.index)
    netlist._consumer_map = (netlist.version, consumers)
    return consumers


def _forward_cone(
    netlist: Netlist, seed_cells: Sequence[int]
) -> Tuple[List[int], frozenset]:
    """Forward closure of ``seed_cells``: every cell reachable through
    driver -> consumer edges, plus the set of their output nets."""
    consumers = _consumers(netlist)
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
    return levels


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
    checked per changed input pin.  An aligned child differs from its
    valid parent only in its changed cells, so that check also proves
    the child valid (every pin driven, no loop) without a levelize
    pass over it; only a refused pin validates the child, so an
    undriven pin or a loop raises the child's own
    :class:`~repro.errors.NetlistError` or
    :class:`~repro.errors.CombinationalLoopError`.

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
        NetlistError: A rewired pin is undriven.
        CombinationalLoopError: A rewire closes a loop.
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
    plan = parent_circuit.soa_plan()
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
                # An undriven pin or a loop is the child's own defect.
                child.validate()
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
        new_levels[level] = bucket_level([cells[p] for p in positions])

    patched = CompiledCircuit.__new__(CompiledCircuit)
    patched.netlist = child
    patched.technology = parent_circuit.technology
    patched.mode = parent_circuit.mode
    patched.fault_hooks = {}
    patched.delay_scale = scale
    patched._cells = cells
    patched.num_nets = child.num_nets
    patched._reach_masks = None
    patched._cell_delays = None
    patched._soa_plan = SoAPlan(levels=new_levels)
    patched._plan_rows = None
    patched._hook_rows = {}
    patched.delta_lineage = getattr(
        parent_circuit, "delta_lineage", ()
    ) + (delta.fingerprint(),)
    return patched


# ----------------------------------------------------------------------
# Full-arrival tensor (the reusable base)
# ----------------------------------------------------------------------


def _replay_all_arrivals(
    circuit: CompiledCircuit, plane: ValuePlane, scales: np.ndarray
) -> np.ndarray:
    """Dense ``(num_nets, n, k)`` arrival tensor for every net.

    The bucketed sparse pass of
    :meth:`~repro.timing.replay.ArrivalReplay._replay_soa`, but
    scattered into a dense tensor that keeps *all* per-net rows instead
    of a compact store harvested only at the output ports: rows of
    quiet entries, primary inputs and constant rails stay exactly 0.0
    (the quiet-zero invariant), so a cone replay can gather any
    boundary net's arrivals with no special-casing.  ``np.zeros`` pages
    fault in only where an active entry lands, which keeps this tensor
    smaller in practice than a compact store plus its slot map (see
    DESIGN.md section 11).  All arithmetic is elementwise per (cell,
    pattern, corner) entry, so the tensor is bit-identical to the
    chunked port replay.  Callers size ``n * k`` (the tensor is the
    product, ~``num_nets * n * k * 8`` bytes).
    """
    plan = circuit.soa_plan()
    n = plane.num_patterns
    k = scales.shape[0]
    full = np.zeros((circuit.num_nets, n, k))
    # Flat (net * n + pattern) rows: 1-D row takes and scatters run
    # several times faster than 2-D fancy indexing at small k.
    flat = full.reshape(circuit.num_nets * n, k)
    for bucket_list in plan.levels:
        for bucket in bucket_list:
            outs = bucket.outputs
            pins = bucket.pins
            # Flat (cell * n + pattern) indices of the active entries.
            active = np.unpackbits(
                plane.may_packed[outs], axis=1, count=n
            ).view(bool).ravel().nonzero()[0]
            if not active.size:
                continue
            rows, cols = np.divmod(active, n)
            count = logic.aux_count(bucket.opcode, pins.shape[0])
            # Every aux lane of the bucket in one unpack, lane-major.
            lanes = np.unpackbits(
                plane.aux_packed[
                    (
                        np.arange(count)[:, None]
                        + plane.aux_offsets[bucket.positions]
                    ).ravel()
                ],
                axis=1,
                count=n,
            ).view(bool).reshape(count, outs.size * n)
            aux = tuple(lane.take(active) for lane in lanes)
            arrs = [
                np.take(flat, pins[j][rows] * n + cols, axis=0)
                for j in range(pins.shape[0])
            ]
            delay = (
                bucket.fresh_delays[:, None]
                * scales[:, bucket.cell_indices].T
            )
            out = _active_arrival(
                bucket.opcode, aux, arrs, np.take(delay, rows, axis=0)
            )
            flat[outs[rows] * n + cols] = out
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
    ``"full"``: from-scratch fallback).

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
    collect_bit_arrivals: bool = False,
    chunk_size: "Optional[int | str]" = "auto",
    fault_hooks: Optional[Dict[int, FaultHook]] = None,
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
        fault_hooks=fault_hooks,
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

    One value-plane pass, one values-only pass
    (:meth:`CompiledCircuit._settled_values`, packed into
    :attr:`values` for the cone boundaries) and one all-nets arrival
    replay at the base ``(k, num_cells)`` scale matrix.  Against this
    base, :func:`replay_delta` prices an aligned child netlist --
    and/or a perturbed scale matrix -- touching only the affected cone.

    Raises:
        DeltaError: Bad scale shape, a circuit with fault hooks (delta
            bases must be pristine) or a ragged stimulus.
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
        _check_delay_scales(scales, DeltaError)
        self.circuit = circuit
        self.stimulus = {
            name: np.asarray(values, dtype=np.uint64)
            for name, values in stimulus.items()
        }
        self.scales = scales
        if circuit.fault_hooks:
            raise DeltaError(
                "delta base planes require a hook-free circuit"
            )
        lengths = {values.shape[0] for values in self.stimulus.values()}
        if len(lengths) != 1:
            raise DeltaError("stimulus arrays must be equally long")
        # initial=None: see the module docstring.
        self.plane = build_value_plane(
            circuit, self.stimulus, initial=None, chunk_size=chunk_size
        )
        settled = circuit._settled_values(self.stimulus, "a delta base")
        #: ``(num_nets, ceil((n + 1) / 8))`` packed settled values of
        #: every net, rails included, settling column first, for cone
        #: boundaries.
        self.values = np.packbits(settled, axis=1)
        del settled  # before the arrival tensor allocates
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
        plan = circuit.soa_plan()
        self.level_of_position = _plan_levels(plan, num_cells)
        self.pos_by_index = {
            c.index: c.position for c in circuit._cells
        }

    @property
    def nbytes(self) -> int:
        """Approximate footprint (dominated by the arrival tensor)."""
        return self.arrivals.nbytes + self.plane.nbytes + self.values.nbytes

    def value(self, net: int) -> np.ndarray:
        """Unpacked settled-value stream (uint8 0/1) of one net, its
        settling column (equal to pattern 0) at index 0."""
        return np.unpackbits(
            self.values[net], count=self.num_patterns + 1
        )

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


def _hook_seeds(
    netlist: Netlist, fault_hooks: Dict[int, FaultHook]
) -> List[int]:
    """Cells a set of value hooks seeds the cones with: the driver of a
    hooked cell output, the consumers of a hooked primary input.

    Raises:
        DeltaError: A hook on a constant rail or on a net the netlist
            does not have.
    """
    seeds = set()
    for net in fault_hooks:
        if (
            not isinstance(net, int)
            or isinstance(net, bool)
            or net in (CONST0, CONST1)
            or not 0 <= net < netlist.num_nets
        ):
            raise DeltaError(
                "cannot hook net %r: not a non-rail net of a %d-net"
                " netlist" % (net, netlist.num_nets)
            )
        driver = netlist.driver_of(net)
        if driver is None:
            seeds.update(_consumers(netlist).get(net, ()))
        else:
            seeds.add(driver.index)
    return sorted(seeds)


def replay_delta(
    base: DeltaBase,
    child: Netlist,
    delay_scales: Optional[np.ndarray] = None,
    delta: Optional[NetlistDelta] = None,
    collect_bit_arrivals: bool = False,
    max_cone_fraction: Optional[float] = None,
    fault_hooks: Optional[Dict[int, FaultHook]] = None,
) -> DeltaResult:
    """Price an aligned child netlist against a parent base.

    Re-simulates only the affected cone: the *value cone* (forward
    closure of structurally changed and hook-seeded cells) is
    re-evaluated through :func:`logic.eval_vector` /
    :func:`logic.aux_masks` / :func:`logic.changed_matrix`; the
    *arrival cone* (the value cone plus the closure of scale-perturbed
    cells) is re-timed cell by cell through the replay's one arrival
    rule, :func:`~repro.timing.replay._active_arrival`, on the cell's
    active patterns (its pins' ``(n, k)`` rows gathered there; quiet
    patterns stay 0.0).  Everything outside a cone is gathered from the
    base plane / arrival tensor.  Bit-identical to :func:`evaluate_full`
    on the child.

    Args:
        delay_scales: Optional replacement scale matrix; must match the
            base's ``(k, num_cells)`` shape (None: the base scales).
        delta: Optional precomputed diff (skips re-hashing).
        max_cone_fraction: When set and the arrival cone exceeds this
            fraction of all cells, evaluate from scratch instead
            (``method="full"``) -- same bytes, different cost profile.
        fault_hooks: Optional net id -> value hook map, applied as
            :class:`~repro.timing.engine.CompiledCircuit` applies its
            ``fault_hooks`` (to the row whose settling column is at
            index 0, with ``start_index`` -1).  The hooked net seeds
            both cones: its driver cell, or a primary input's
            consumers.

    Raises:
        DeltaError: Misaligned pair, mismatched scale shape, an
            unpatchable rewire (see :func:`patch_compiled`), or a hook
            on a constant rail or unknown net.
    """
    parent_circuit = base.circuit
    hooks = dict(fault_hooks or {})
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
        _check_delay_scales(scales, DeltaError)
    if delta is None:
        delta = diff_netlists(parent_circuit.netlist, child)
    scale_changed = np.nonzero(
        (scales != base.scales).any(axis=0)
    )[0]

    if delta.is_empty and not scale_changed.size and not hooks:
        result = base.result(collect_bit_arrivals=collect_bit_arrivals)
        return dataclasses.replace(result, delta=delta)

    if delta.is_empty:
        patched = parent_circuit
    else:
        patched = patch_compiled(parent_circuit, child, delta)

    value_cone = set(delta.cone_cells)
    if hooks:
        seeds = _hook_seeds(child, hooks)
        value_cone.update(_forward_cone(child, seeds)[0])
    arrival_cone = value_cone | set(
        _forward_cone(child, scale_changed)[0]
    )
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
            fault_hooks=hooks,
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
    # Value and may rows are n + 1 long, the settling column first, as
    # the engine hands them to hooks and to change detection.
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
                row = base.value(net)
                boundary_vals[net] = row
        return row

    def may_row(net: int) -> np.ndarray:
        row = new_mays.get(net)
        if row is None:
            row = boundary_mays.get(net)
            if row is None:
                # The settling column never may-change.
                row = np.zeros(n + 1, dtype=bool)
                if net not in (CONST0, CONST1):
                    row[1:] = plane.may(net)
                boundary_mays[net] = row
        return row

    for net, hook in hooks.items():
        if child.is_primary_input(net):
            row = np.asarray(hook(value_row(net), -1), dtype=np.uint8)
            new_vals[net] = row
            new_mays[net] = logic.changed_matrix(row, None)

    for position in cone_order(value_cone):
        compiled = cells[position]
        in_vals = [value_row(pin) for pin in compiled.inputs]
        out_val = logic.eval_vector(compiled.opcode, in_vals)
        hook = hooks.get(compiled.output)
        if hook is not None:
            out_val = np.asarray(hook(out_val, -1), dtype=np.uint8)
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
        new_aux[position] = tuple(mask[1:] for mask in aux)

    # -- arrival cone: re-time the value cone + scale-perturbed closure
    # Rows are (n, k) like the base tensor's; boundary rows include PIs,
    # constant rails and quiet nets (all exactly 0.0 there).
    k = scales.shape[0]
    new_arr: Dict[int, np.ndarray] = {}

    def arrival_row(net: int) -> np.ndarray:
        row = new_arr.get(net)
        return base.arrivals[net] if row is None else row

    for position in cone_order(arrival_cone):
        compiled = cells[position]
        aux = new_aux.get(position)
        if aux is None:
            aux = plane.aux(position)
        out_may = new_mays.get(compiled.output)
        if out_may is None:
            out_may = plane.may(compiled.output)
        else:
            out_may = out_may[1:]
        row = np.zeros((n, k))
        active = np.flatnonzero(out_may)
        if active.size:
            row[active] = _active_arrival(
                compiled.opcode,
                tuple(mask[active] for mask in aux),
                [
                    np.take(arrival_row(pin), active, axis=0)
                    for pin in compiled.inputs
                ],
                compiled.fresh_delay_ns * scales[:, compiled.index],
            )
        new_arr[compiled.output] = row

    # -- assemble: splice outputs, re-reduce port delays ---------------
    ports = child.output_ports
    outputs: Dict[str, np.ndarray] = {}
    for name, port in ports.items():
        if any(net in new_vals for net in port.nets):
            bits = logic.unpack_bits(plane.outputs[name], port.width)
            for lane, net in enumerate(port.nets):
                row = new_vals.get(net)
                if row is not None:
                    bits[lane] = row[1:]
            outputs[name] = logic.pack_bits(bits)
        else:
            outputs[name] = plane.outputs[name]

    delays = np.zeros_like(base.delays)
    bit_arrivals: Optional[Dict[str, np.ndarray]] = (
        {} if collect_bit_arrivals else None
    )
    for name, port in ports.items():
        rows = [arrival_row(net).T for net in port.nets]
        for row in rows:
            np.maximum(delays, row, out=delays)
        if collect_bit_arrivals:
            bit_arrivals[name] = np.stack(rows)

    return DeltaResult(
        outputs=outputs,
        delays=delays,
        delay_scales=scales,
        num_patterns=n,
        method="delta",
        bit_arrivals=bit_arrivals,
        delta=delta,
        value_cone_cells=tuple(sorted(value_cone)),
        arrival_cone_cells=tuple(sorted(arrival_cone)),
    )
