"""Levelized, numpy-vectorized two-vector stream simulator.

This is the reproduction's replacement for the paper's SPICE/Nanosim step:
it applies a *stream* of input patterns to a combinational netlist and, for
every pattern, computes

* the settled primary-output values (checked against golden models),
* the per-pattern **path delay** -- when the last primary-output
  transition lands, given the previous pattern (this is the quantity
  Figs. 5, 6 and 13-24 are built from),
* the switched capacitance (dynamic power), with switching inside
  *bypassed* full-adder groups frozen exactly as the tri-state gates do in
  the real circuit,
* per-net signal probabilities (inputs to the BTI stress model).

Two delay semantics are available (see :func:`repro.timing.logic
.arrival_vector`):

* ``mode="inertial"`` (default): only nets whose settled value changes
  propagate arrivals -- the glitch-filtered "last transition" a
  switch-level simulator reports; this is what the paper's per-pattern
  delay distributions correspond to;
* ``mode="floating"``: hazard-pessimistic; arrivals provably upper-bound
  the event-driven transport-delay settle time (cross-checked in tests).

All per-pattern quantities are vectorized across the pattern axis; the
Python-level loop runs once per cell, not once per pattern.  Memory stays
bounded because each net's arrays are freed as soon as its last consumer
has been evaluated; exactness across chunk boundaries is preserved by
carrying each net's final value and each bypass group's held value.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..config import DEFAULT_TECHNOLOGY, Technology
from ..errors import FaultError, SimulationError
from ..nets.netlist import CONST0, CONST1, Netlist
from . import logic
from .soa import build_soa_plan

#: A value-fault hook: maps a net's per-pattern bit stream to the faulted
#: stream.  ``start_index`` is the *global* index of the first element
#: (-1 for the prepended settling pattern), so hooks stay deterministic
#: across chunk boundaries.  Hooks must be pure functions of their
#: arguments.
FaultHook = Callable[[np.ndarray, int], np.ndarray]

#: Delay-semantics modes accepted by :class:`CompiledCircuit`.
MODES = ("inertial", "floating")

#: Evaluation kernels accepted by :class:`CompiledCircuit`.  ``"soa"``
#: (the default, and the only production path) evaluates whole
#: (level, opcode) buckets with batched gather/scatter over
#: ``(num_nets, n)`` matrices; ``"percell"`` is the original per-cell
#: interpreter, kept only as the test and benchmark reference.  Both
#: produce bit-identical per-net and per-pattern results (values,
#: delays, arrivals, toggles); only the cross-cell switched-capacitance
#: *sum* may differ by float association.
KERNELS = ("soa", "percell")

#: Peak-memory target for ``chunk_size="auto"``: the streaming loop keeps
#: on the order of ``num_nets`` live per-pattern arrays (uint8 value,
#: bool may, float64 arrival, float64 transition density -- less after
#: dead-net freeing), so patterns-per-chunk is bounded by this budget
#: divided by ``num_nets * _AUTO_BYTES_PER_NET``.
AUTO_CHUNK_TARGET_BYTES = 256 * 1024 * 1024
_AUTO_BYTES_PER_NET = 32


def auto_chunk_size(num_nets: int, num_patterns: int) -> int:
    """Patterns per chunk so a run stays near ``AUTO_CHUNK_TARGET_BYTES``.

    Returns a multiple of 8 (so value-plane bit-packing stays
    byte-aligned at chunk boundaries), at least 64, and possibly larger
    than ``num_patterns`` -- in which case the run is unchunked.
    """
    per_pattern = max(1, num_nets) * _AUTO_BYTES_PER_NET
    chunk = AUTO_CHUNK_TARGET_BYTES // per_pattern
    chunk = max(64, chunk - chunk % 8)
    return chunk


@dataclasses.dataclass
class StreamResult:
    """Results of one :meth:`CompiledCircuit.run` call.

    Attributes:
        outputs: Output port name -> uint64 settled values per pattern.
        delays: Per-pattern path delay in ns (max over all output bits;
            0 when no output changes).
        switched_caps: Per-pattern switched capacitance in unit caps.
        bit_arrivals: Optional port -> ``(width, n)`` per-bit arrival ns.
        signal_prob: Optional per-net probability of logic 1.
        toggle_counts: Optional per-net toggle totals.
        num_patterns: Stream length.
    """

    outputs: Dict[str, np.ndarray]
    delays: np.ndarray
    switched_caps: np.ndarray
    num_patterns: int
    bit_arrivals: Optional[Dict[str, np.ndarray]] = None
    signal_prob: Optional[np.ndarray] = None
    toggle_counts: Optional[np.ndarray] = None

    @property
    def max_delay(self) -> float:
        """Largest observed per-pattern delay (ns)."""
        return float(self.delays.max()) if self.num_patterns else 0.0

    @property
    def mean_delay(self) -> float:
        """Mean per-pattern delay (ns)."""
        return float(self.delays.mean()) if self.num_patterns else 0.0

    def mean_switched_caps(self) -> float:
        """Average switched capacitance per operation (unit caps)."""
        if not self.num_patterns:
            return 0.0
        return float(self.switched_caps.mean())


@dataclasses.dataclass(frozen=True)
class _CompiledCell:
    position: int
    opcode: int
    inputs: "tuple[int, ...]"
    output: int
    delay_ns: float
    cap: float
    group: Optional[str]
    #: Original netlist cell index (the ``delay_scale`` axis).
    index: int = 0
    #: Unscaled delay (``delay_units * time_unit_ns``); ``delay_ns`` is
    #: exactly ``fresh_delay_ns * delay_scale[index]``, and arrival
    #: replay recomputes it the same way for other scale vectors.
    fresh_delay_ns: float = 0.0


class CompiledCircuit:
    """A netlist compiled for vectorized stream simulation.

    Args:
        netlist: A validated combinational :class:`Netlist`.
        technology: Supplies the delay unit (ns per logical-effort unit).
        delay_scale: Optional per-cell multiplicative delay factors
            (indexed by cell index) -- this is how aging enters timing.
        mode: Delay semantics, ``"inertial"`` or ``"floating"``.
        fault_hooks: Optional net id -> :data:`FaultHook` mapping.  Each
            hook rewrites that net's settled-value stream *before* change
            detection, so arrivals, switching activity and downstream
            logic all see the faulted values (this is how stuck-at and
            transient value faults enter the simulation; delay faults
            enter through ``delay_scale``).  Constant rails cannot be
            hooked.
        kernel: Evaluation kernel, one of :data:`KERNELS`.  ``"soa"``
            runs the levelized bucketed kernel with scalar fallback for
            hooked cells; ``"percell"`` forces the per-cell reference
            path everywhere.
    """

    def __init__(
        self,
        netlist: Netlist,
        technology: Technology = DEFAULT_TECHNOLOGY,
        delay_scale: Optional[np.ndarray] = None,
        mode: str = "inertial",
        fault_hooks: Optional[Dict[int, FaultHook]] = None,
        kernel: str = "soa",
    ):
        if mode not in MODES:
            raise SimulationError(
                "mode must be one of %s, got %r" % (MODES, mode)
            )
        if kernel not in KERNELS:
            raise SimulationError(
                "kernel must be one of %s, got %r" % (KERNELS, kernel)
            )
        self.kernel = kernel
        netlist.validate()
        self.netlist = netlist
        self.technology = technology
        self.mode = mode
        self.fault_hooks: Dict[int, FaultHook] = dict(fault_hooks or {})
        for net in self.fault_hooks:
            if not isinstance(net, int) or isinstance(net, bool):
                raise FaultError("fault hook net id must be an int, got %r"
                                 % (net,))
            if net in (CONST0, CONST1):
                raise FaultError("cannot hook the constant rails")
            if not 0 <= net < netlist.num_nets:
                raise FaultError(
                    "fault hook net %d out of range (netlist has %d nets)"
                    % (net, netlist.num_nets)
                )
        order = netlist.levelize()
        if delay_scale is None:
            scale = np.ones(len(netlist.cells))
        else:
            scale = np.asarray(delay_scale, dtype=float)
            if scale.shape != (len(netlist.cells),):
                raise SimulationError(
                    "delay_scale must have one entry per cell (%d), got %r"
                    % (len(netlist.cells), scale.shape)
                )
            if np.any(scale <= 0):
                raise SimulationError("delay_scale entries must be positive")
        self.delay_scale = scale

        unit = technology.time_unit_ns
        self._cells: List[_CompiledCell] = []
        for position, cell in enumerate(order):
            fresh = cell.cell_type.delay_units * unit
            self._cells.append(
                _CompiledCell(
                    position=position,
                    opcode=cell.cell_type.opcode,
                    inputs=cell.inputs,
                    output=cell.output,
                    delay_ns=fresh * float(scale[cell.index]),
                    cap=cell.cell_type.load_caps,
                    group=cell.group,
                    index=cell.index,
                    fresh_delay_ns=fresh,
                )
            )

        # Net protection and lifetime analysis for array freeing.
        self._protected = {CONST0, CONST1}
        for port in netlist.input_ports.values():
            self._protected.update(port.nets)
        for port in netlist.output_ports.values():
            self._protected.update(port.nets)
        self._protected.update(netlist.group_enables.values())

        self._last_use: Dict[int, int] = {}
        for compiled in self._cells:
            for net in compiled.inputs:
                self._last_use[net] = compiled.position

        self.num_nets = netlist.num_nets
        self._reach_masks: Optional[List[int]] = None
        self._cell_delays: Optional[np.ndarray] = None
        self._soa_value_plan = None
        self._soa_replay_plan = None

    # ------------------------------------------------------------------
    # Logic-cone reachability
    # ------------------------------------------------------------------

    def output_bit_labels(
        self, ports: Optional[Sequence[str]] = None
    ) -> "List[tuple]":
        """``(port name, bit index)`` labels, one per observed output bit.

        Bit ``k`` of the masks returned by :meth:`output_reach_mask`
        corresponds to entry ``k`` of this list.  ``ports`` restricts the
        observation to a subset of output ports (default: all of them).
        """
        if ports is None:
            names = list(self.netlist.output_ports)
        else:
            names = list(ports)
            for name in names:
                if name not in self.netlist.output_ports:
                    raise SimulationError(
                        "unknown output port %r (have: %s)"
                        % (name, sorted(self.netlist.output_ports))
                    )
        labels = []
        for name in names:
            port = self.netlist.output_ports[name]
            labels.extend((name, bit) for bit in range(port.width))
        return labels

    def output_reach_mask(
        self, ports: Optional[Sequence[str]] = None
    ) -> List[int]:
        """Per-net bitmask of the observed output bits its cone reaches.

        Entry ``net`` is an arbitrary-precision integer whose bit ``k``
        is set iff a directed path of cells leads from ``net`` to output
        bit ``k`` of :meth:`output_bit_labels` (a net that *is* an
        output bit reaches itself).  Computed by one reverse-topological
        sweep and cached for the default (all-ports) observation.

        A fault site whose mask is 0 cannot corrupt any observed product
        bit -- neither its value nor its arrival time propagates to an
        output -- which is the exact condition campaign logic-cone
        pruning relies on.
        """
        cache_ok = ports is None
        if cache_ok and self._reach_masks is not None:
            return self._reach_masks
        masks = [0] * self.num_nets
        for bit, (name, index) in enumerate(self.output_bit_labels(ports)):
            masks[self.netlist.output_ports[name].nets[index]] |= 1 << bit
        # Reverse-topological sweep: a cell's inputs reach everything its
        # output reaches.
        for compiled in reversed(self._cells):
            mask = masks[compiled.output]
            if mask:
                for net in compiled.inputs:
                    masks[net] |= mask
        if cache_ok:
            self._reach_masks = masks
        return masks

    def reaches_outputs(
        self, net: int, ports: Optional[Sequence[str]] = None
    ) -> bool:
        """Whether ``net``'s forward cone touches any observed output bit."""
        if not 0 <= net < self.num_nets:
            raise SimulationError(
                "net %d out of range (circuit has %d nets)"
                % (net, self.num_nets)
            )
        return bool(self.output_reach_mask(ports)[net])

    def with_delay_scale(self, delay_scale: np.ndarray) -> "CompiledCircuit":
        """Recompile with new per-cell delay factors (e.g. another year)."""
        return CompiledCircuit(
            self.netlist, self.technology, delay_scale, self.mode,
            self.fault_hooks, self.kernel,
        )

    def cell_delays_ns(self) -> np.ndarray:
        """Per-cell delays in topological order (ns).

        Cached (and returned read-only) -- campaign pruning and timing
        reports call this repeatedly on the same compiled circuit.
        """
        if self._cell_delays is None:
            delays = np.array([c.delay_ns for c in self._cells])
            delays.setflags(write=False)
            self._cell_delays = delays
        return self._cell_delays

    def soa_value_plan(self):
        """The bucketed :class:`~repro.timing.soa.SoAPlan` of the value
        pass: cells with hooked outputs fall into per-level scalar
        lists (built lazily, cached)."""
        if self._soa_value_plan is None:
            self._soa_value_plan = build_soa_plan(
                self._cells, self.netlist, frozenset(self.fault_hooks)
            )
        return self._soa_value_plan

    def soa_replay_plan(self):
        """The all-cells bucket plan used by arrival replay.  Replay
        consumes recorded (already-faulted) masks, so hooks need no
        scalar fallback there; hook-free circuits share the value plan.
        """
        if self._soa_replay_plan is None:
            if not self.fault_hooks:
                self._soa_replay_plan = self.soa_value_plan()
            else:
                self._soa_replay_plan = build_soa_plan(
                    self._cells, self.netlist, frozenset()
                )
        return self._soa_replay_plan

    # ------------------------------------------------------------------

    def run(
        self,
        stimulus: Dict[str, Sequence[int]],
        initial: Optional[Dict[str, int]] = None,
        collect_bit_arrivals: bool = False,
        collect_net_stats: bool = False,
        chunk_size: "Optional[int | str]" = None,
        fold: bool = False,
        _recorder=None,
    ) -> StreamResult:
        """Simulate a pattern stream.

        Args:
            stimulus: Port name -> integer pattern values (all input ports
                must be present, all arrays equally long).
            initial: Optional port values the circuit held *before* the
                first pattern.  Defaults to the first pattern itself, so
                pattern 0 arrives on a settled, quiet circuit and reports
                zero delay.  Names must be input ports.
            collect_bit_arrivals: Keep per-output-bit arrival matrices.
            collect_net_stats: Keep per-net signal probabilities and
                toggle counts (needed by the aging stress extractor).
            chunk_size: Process the stream in chunks of this many patterns
                to bound memory; results are exact regardless of chunking.
                ``"auto"`` picks a chunk from :func:`auto_chunk_size` so
                peak memory stays near ``AUTO_CHUNK_TARGET_BYTES``
                regardless of ``num_nets * n``.
            fold: Deduplicate repeated ``(previous, current)`` operand
                transitions and simulate only the unique pairs (see
                :mod:`repro.timing.fold`); results are bit-identical to
                the unfolded run.  Silently bypassed whenever folding
                cannot preserve semantics (fault hooks consume global
                pattern indices; net stats and value-plane recording
                aggregate with per-pattern multiplicity) or when the
                stream barely repeats.
            _recorder: Internal -- a value-plane recorder (see
                :mod:`repro.timing.replay`).  When set, arrival
                computation is skipped (the recorder captures the masks
                needed to replay it) and the returned ``delays`` /
                ``bit_arrivals`` are not meaningful.
        """
        ports = self.netlist.input_ports
        missing = set(ports) - set(stimulus)
        extra = set(stimulus) - set(ports)
        if missing or extra:
            raise SimulationError(
                "stimulus ports mismatch: missing=%s extra=%s"
                % (sorted(missing), sorted(extra))
            )
        if initial is not None:
            unknown = set(initial) - set(ports)
            if unknown:
                raise SimulationError(
                    "initial contains unknown input ports: %s (have: %s)"
                    % (sorted(unknown), sorted(ports))
                )
        arrays = {
            name: np.asarray(values, dtype=np.uint64)
            for name, values in stimulus.items()
        }
        lengths = {arr.shape[0] for arr in arrays.values()}
        if len(lengths) != 1:
            raise SimulationError("stimulus arrays must be equally long")
        (n,) = lengths
        if n == 0:
            raise SimulationError("stimulus must contain at least 1 pattern")

        if (
            fold
            and not self.fault_hooks
            and not collect_net_stats
            and _recorder is None
        ):
            from .fold import fold_stimulus, unfold_stream

            plan = fold_stimulus(arrays, initial)
            if plan.profitable:
                folded = self.run(
                    plan.folded,
                    collect_bit_arrivals=collect_bit_arrivals,
                    chunk_size=chunk_size,
                )
                return unfold_stream(folded, plan)

        if isinstance(chunk_size, str):
            if chunk_size != "auto":
                raise SimulationError(
                    'chunk_size must be an int, None or "auto", got %r'
                    % (chunk_size,)
                )
            chunk_size = auto_chunk_size(self.num_nets, n)

        # Prepend the settling pattern: the state the circuit held before
        # pattern 0.  Index 0 of the simulated stream is dropped from all
        # per-pattern results, so delays/toggles are exact two-vector
        # quantities for every reported pattern.
        prefixed = {}
        for name, arr in arrays.items():
            first = (
                np.uint64(initial[name])
                if initial is not None and name in initial
                else arr[0]
            )
            prefixed[name] = np.concatenate(([first], arr))

        if chunk_size is None or chunk_size >= n + 1:
            result, _, _ = self._run_chunk(
                prefixed,
                carry_values=None,
                carry_held={},
                collect_bit_arrivals=collect_bit_arrivals,
                collect_net_stats=collect_net_stats,
                drop_first=True,
                start_index=-1,
                recorder=_recorder,
            )
            return result

        if chunk_size < 1:
            raise SimulationError("chunk_size must be >= 1")
        if _recorder is not None and chunk_size % 8:
            raise SimulationError(
                "value-plane recording needs a chunk_size that is a "
                "multiple of 8 (byte-aligned bit packing), got %d"
                % chunk_size
            )
        pieces: List[StreamResult] = []
        carry_values: Optional[np.ndarray] = None
        carry_held: Dict[int, int] = {}
        total = n + 1
        start = 0
        first_chunk = True
        while start < total:
            stop = min(start + chunk_size + (1 if first_chunk else 0), total)
            chunk = {name: arr[start:stop] for name, arr in prefixed.items()}
            result, carry_values, carry_held = self._run_chunk(
                chunk,
                carry_values=carry_values,
                carry_held=carry_held,
                collect_bit_arrivals=collect_bit_arrivals,
                collect_net_stats=collect_net_stats,
                drop_first=first_chunk,
                start_index=start - 1,
                recorder=_recorder,
            )
            pieces.append(result)
            start = stop
            first_chunk = False
        return _concatenate_results(pieces, self.num_nets)

    def value_plane(
        self,
        stimulus: Dict[str, Sequence[int]],
        initial: Optional[Dict[str, int]] = None,
        collect_net_stats: bool = False,
        chunk_size: "Optional[int | str]" = "auto",
    ):
        """Run the value pass once and return a reusable
        :class:`~repro.timing.replay.ValuePlane` (see that module)."""
        from .replay import build_value_plane

        return build_value_plane(
            self,
            stimulus,
            initial=initial,
            collect_net_stats=collect_net_stats,
            chunk_size=chunk_size,
        )

    # ------------------------------------------------------------------

    def _run_chunk(
        self,
        arrays: Dict[str, np.ndarray],
        carry_values: Optional[np.ndarray],
        carry_held: Dict[int, int],
        collect_bit_arrivals: bool,
        collect_net_stats: bool,
        drop_first: bool,
        start_index: int = -1,
        recorder=None,
    ):
        """Simulate one chunk through the configured kernel.

        ``carry_values`` holds every net's settled value at the end of
        the previous chunk (None for the first chunk, which instead
        starts with the prepended settling pattern and ``drop_first``).
        ``start_index`` is the global pattern index of the chunk's first
        element (-1 for the settling pattern), forwarded to fault hooks.
        ``recorder``, when set, captures the value plane instead of
        computing arrivals.
        """
        if self.kernel == "percell":
            runner = self._run_chunk_percell
        else:
            runner = self._run_chunk_soa
        return runner(
            arrays,
            carry_values,
            carry_held,
            collect_bit_arrivals,
            collect_net_stats,
            drop_first,
            start_index=start_index,
            recorder=recorder,
        )

    def _run_chunk_soa(
        self,
        arrays: Dict[str, np.ndarray],
        carry_values: Optional[np.ndarray],
        carry_held: Dict[int, int],
        collect_bit_arrivals: bool,
        collect_net_stats: bool,
        drop_first: bool,
        start_index: int = -1,
        recorder=None,
    ):
        """Levelized SoA chunk runner.

        Holds dense ``(num_nets, n)`` value / may / transition (and,
        unless recording, arrival) matrices and evaluates one
        (level, opcode) bucket per batched kernel call; cells with
        hooked outputs run through the scalar fallback after their
        level's buckets so downstream buckets see the faulted rows.
        """
        fault_hooks = self.fault_hooks
        netlist = self.netlist
        plan = self.soa_value_plan()
        n = next(iter(arrays.values())).shape[0]
        num_nets = self.num_nets
        inertial = self.mode == "inertial"
        damping = self.technology.glitch_damping
        lo = 1 if drop_first else 0
        record_values = recorder is not None and getattr(
            recorder, "wants_values", False
        )
        if recorder is not None:
            recorder.begin(start_index + lo, lo)

        V = np.zeros((num_nets, n), dtype=np.uint8)
        V[CONST1] = 1
        M = np.zeros((num_nets, n), dtype=bool)
        T = np.zeros((num_nets, n))
        A = None if recorder is not None else np.zeros((num_nets, n))

        switched = np.zeros(n)
        sig_sum = np.zeros(num_nets) if collect_net_stats else None
        tog_sum = np.zeros(num_nets) if collect_net_stats else None
        if collect_net_stats:
            sig_sum[CONST1] = n
        new_held: Dict[int, int] = {}

        # Primary inputs: expand port words into per-net bit rows.
        for name, port in netlist.input_ports.items():
            bits = logic.unpack_bits(arrays[name], port.width)
            for lane, net in enumerate(port.nets):
                cur = bits[lane]
                if net in fault_hooks:
                    cur = np.asarray(
                        fault_hooks[net](cur, start_index), dtype=np.uint8
                    )
                flags = logic.changed_matrix(
                    cur,
                    None if carry_values is None else carry_values[net],
                )
                V[net] = cur
                M[net] = flags
                T[net] = flags
                if recorder is not None:
                    recorder.net_may(net, flags)
                    if record_values:
                        recorder.net_values(net, cur)
                if collect_net_stats:
                    sig_sum[net] = cur.sum()
                    tog_sum[net] = flags.sum()

        group_enable_net = netlist.group_enables

        for bucket_list, scalars in zip(plan.levels, plan.scalar_levels):
            for bucket in bucket_list:
                pins = bucket.pins
                outs = bucket.outputs
                in_vals = [V[pins[j]] for j in range(pins.shape[0])]
                out_val = logic.eval_vector(bucket.opcode, in_vals)
                changed = logic.changed_matrix(
                    out_val,
                    None if carry_values is None else carry_values[outs],
                )
                aux = logic.aux_masks(bucket.opcode, in_vals)
                if inertial:
                    out_may = changed
                else:
                    in_mays = [M[pins[j]] for j in range(pins.shape[0])]
                    out_may = logic.may_vector(
                        bucket.opcode, in_vals, in_mays, aux
                    )
                if recorder is None:
                    in_arrs = [A[pins[j]] for j in range(pins.shape[0])]
                    A[outs] = logic.arrival_masks(
                        bucket.opcode,
                        aux,
                        in_arrs,
                        bucket.delays[:, None],
                        out_may,
                    )
                else:
                    recorder.cell_bucket(
                        bucket.positions, outs, out_may, aux
                    )
                    if record_values:
                        recorder.bucket_values(outs, out_val)
                V[outs] = out_val
                M[outs] = out_may
                in_trans = [T[pins[j]] for j in range(pins.shape[0])]
                out_trans = logic.transition_vector(
                    bucket.opcode, in_vals, in_trans, changed,
                    damping=damping,
                )
                T[outs] = out_trans
                # Reduce over the cell axis with an explicit sum (not a
                # BLAS matvec): the pairwise accumulation then depends
                # only on the bucket size, so chunked and unchunked runs
                # produce bit-identical switched capacitance.
                switched += (bucket.caps[:, None] * out_trans).sum(axis=0)
                if collect_net_stats:
                    sig_sum[outs] = out_val.sum(axis=1)
                    tog_sum[outs] = changed.sum(axis=1)

            for compiled in scalars:
                ins = compiled.inputs
                in_vals = [V[p] for p in ins]
                out_val = logic.eval_vector(compiled.opcode, in_vals)
                net = compiled.output
                out_val = np.asarray(
                    fault_hooks[net](out_val, start_index), dtype=np.uint8
                )
                changed = logic.changed_matrix(
                    out_val,
                    None if carry_values is None else carry_values[net],
                )
                aux = logic.aux_masks(compiled.opcode, in_vals)
                if inertial:
                    out_may = changed
                else:
                    out_may = logic.may_vector(
                        compiled.opcode, in_vals, [M[p] for p in ins], aux
                    )
                if recorder is None:
                    A[net] = logic.arrival_masks(
                        compiled.opcode,
                        aux,
                        [A[p] for p in ins],
                        compiled.delay_ns,
                        out_may,
                    )
                else:
                    recorder.cell(compiled.position, net, out_may, aux)
                    if record_values:
                        recorder.net_values(net, out_val)
                V[net] = out_val
                M[net] = out_may
                out_trans = logic.transition_vector(
                    compiled.opcode,
                    in_vals,
                    [T[p] for p in ins],
                    changed,
                    damping=damping,
                )
                T[net] = out_trans
                switched += out_trans * compiled.cap
                if collect_net_stats:
                    if (
                        compiled.group is not None
                        and compiled.group in group_enable_net
                    ):
                        enable = V[group_enable_net[compiled.group]]
                        toggles, held_final = logic.tribuf_masked_toggles(
                            out_val, enable, carry_held.get(net)
                        )
                        new_held[net] = held_final
                        tog_sum[net] = toggles.sum()
                    else:
                        tog_sum[net] = changed.sum()
                    sig_sum[net] = out_val.sum()

        if collect_net_stats:
            # Bucketed bypass-group cells: replace the functional toggle
            # count with the tri-state-hold count (all values exist by
            # now, so the fixup is order-independent).
            for net, enable_net in plan.grouped:
                toggles, held_final = logic.tribuf_masked_toggles(
                    V[net], V[enable_net], carry_held.get(net)
                )
                new_held[net] = held_final
                tog_sum[net] = toggles.sum()

        final_values = V[:, -1].copy()
        final_values[CONST0] = 0
        final_values[CONST1] = 0

        outputs: Dict[str, np.ndarray] = {}
        bit_arrivals: Optional[Dict[str, np.ndarray]] = (
            {} if collect_bit_arrivals else None
        )
        delays = np.zeros(n)
        for name, port in netlist.output_ports.items():
            nets = list(port.nets)
            outputs[name] = logic.pack_bits(V[nets])[lo:]
            if recorder is None:
                port_arr = A[nets]
                if collect_bit_arrivals:
                    bit_arrivals[name] = port_arr[:, lo:]
                delays = np.maximum(delays, port_arr.max(axis=0))
            elif collect_bit_arrivals:
                bit_arrivals[name] = np.zeros((port.width, n - lo))

        reported = n - lo
        result = StreamResult(
            outputs=outputs,
            delays=delays[lo:],
            switched_caps=switched[lo:],
            num_patterns=reported,
            bit_arrivals=bit_arrivals,
            signal_prob=(sig_sum / n) if collect_net_stats else None,
            toggle_counts=tog_sum if collect_net_stats else None,
        )
        return result, final_values, new_held

    def _run_chunk_percell(
        self,
        arrays: Dict[str, np.ndarray],
        carry_values: Optional[np.ndarray],
        carry_held: Dict[int, int],
        collect_bit_arrivals: bool,
        collect_net_stats: bool,
        drop_first: bool,
        start_index: int = -1,
        recorder=None,
    ):
        """Reference per-cell chunk runner (the pre-SoA interpreter)."""
        fault_hooks = self.fault_hooks
        netlist = self.netlist
        n = next(iter(arrays.values())).shape[0]
        zeros_f = np.zeros(n)
        false_b = np.zeros(n, dtype=bool)
        inertial = self.mode == "inertial"
        lo = 1 if drop_first else 0
        record_values = recorder is not None and getattr(
            recorder, "wants_values", False
        )
        if recorder is not None:
            recorder.begin(start_index + lo, lo)

        values: Dict[int, np.ndarray] = {}
        mays: Dict[int, np.ndarray] = {}
        arrs: Dict[int, np.ndarray] = {}
        trans: Dict[int, np.ndarray] = {}

        values[CONST0] = np.zeros(n, dtype=np.uint8)
        values[CONST1] = np.ones(n, dtype=np.uint8)
        mays[CONST0] = mays[CONST1] = false_b
        arrs[CONST0] = arrs[CONST1] = zeros_f
        trans[CONST0] = trans[CONST1] = zeros_f

        switched = np.zeros(n)
        sig_sum = np.zeros(self.num_nets) if collect_net_stats else None
        tog_sum = np.zeros(self.num_nets) if collect_net_stats else None
        if collect_net_stats:
            sig_sum[CONST1] = n

        final_values = np.zeros(self.num_nets, dtype=np.uint8)
        new_held: Dict[int, int] = {}

        def changed_flags(net: int, vals: np.ndarray) -> np.ndarray:
            """Per-step value-change flags with exact chunk carry."""
            flags = np.empty(n, dtype=bool)
            if carry_values is None:
                flags[0] = False
            else:
                flags[0] = vals[0] != carry_values[net]
            flags[1:] = vals[1:] != vals[:-1]
            return flags

        # Primary inputs: expand port words into per-net bit streams.
        for name, port in netlist.input_ports.items():
            bits = logic.unpack_bits(arrays[name], port.width)
            for lane, net in enumerate(port.nets):
                cur = bits[lane]
                if net in fault_hooks:
                    cur = np.asarray(
                        fault_hooks[net](cur, start_index), dtype=np.uint8
                    )
                flags = changed_flags(net, cur)
                values[net] = cur
                mays[net] = flags
                arrs[net] = zeros_f
                trans[net] = flags.astype(float)
                final_values[net] = cur[-1]
                if recorder is not None:
                    recorder.net_may(net, flags)
                    if record_values:
                        recorder.net_values(net, cur)
                if collect_net_stats:
                    sig_sum[net] = cur.sum()
                    tog_sum[net] = flags.sum()

        group_enable_net = netlist.group_enables

        for compiled in self._cells:
            in_vals = [values[net] for net in compiled.inputs]
            in_mays = [mays[net] for net in compiled.inputs]
            out_val = logic.eval_vector(compiled.opcode, in_vals)
            net = compiled.output
            if net in fault_hooks:
                out_val = np.asarray(
                    fault_hooks[net](out_val, start_index), dtype=np.uint8
                )
            changed = changed_flags(net, out_val)
            aux = logic.aux_masks(compiled.opcode, in_vals)
            if inertial:
                out_may = changed
            else:
                out_may = logic.may_vector(
                    compiled.opcode, in_vals, in_mays, aux
                )
            if recorder is None:
                in_arrs = [arrs[net] for net in compiled.inputs]
                arrs[net] = logic.arrival_masks(
                    compiled.opcode, aux, in_arrs, compiled.delay_ns,
                    out_may,
                )
            else:
                # Value-plane pass: the recorder keeps the masks the
                # arrival rules consume; arrivals are replayed later for
                # arbitrarily many delay vectors.
                recorder.cell(compiled.position, net, out_may, aux)
                if record_values:
                    recorder.net_values(net, out_val)
            values[net] = out_val
            mays[net] = out_may
            final_values[net] = out_val[-1]

            # Switching activity: value-conditioned transition densities
            # (glitches included; disabled tri-state groups stay quiet).
            out_trans = logic.transition_vector(
                compiled.opcode,
                in_vals,
                [trans[used] for used in compiled.inputs],
                changed,
                damping=self.technology.glitch_damping,
            )
            trans[net] = out_trans
            switched += out_trans * compiled.cap

            if collect_net_stats:
                # Toggle stats use functional (zero-delay) changes, with
                # grouped cells held while their bypass enable is low.
                if (
                    compiled.group is not None
                    and compiled.group in group_enable_net
                ):
                    enable = values[group_enable_net[compiled.group]]
                    toggles, held_final = logic.tribuf_masked_toggles(
                        out_val, enable, carry_held.get(net)
                    )
                    new_held[net] = held_final
                else:
                    toggles = changed
                sig_sum[net] = out_val.sum()
                tog_sum[net] = toggles.sum()

            # Free nets whose last consumer has now run.
            for used in compiled.inputs:
                if (
                    used not in self._protected
                    and self._last_use.get(used) == compiled.position
                ):
                    values.pop(used, None)
                    mays.pop(used, None)
                    arrs.pop(used, None)
                    trans.pop(used, None)

        outputs: Dict[str, np.ndarray] = {}
        bit_arrivals: Optional[Dict[str, np.ndarray]] = (
            {} if collect_bit_arrivals else None
        )
        delays = np.zeros(n)
        for name, port in netlist.output_ports.items():
            bit_matrix = np.vstack([values[net] for net in port.nets])
            outputs[name] = logic.pack_bits(bit_matrix)[lo:]
            if recorder is None:
                port_arr = np.vstack([arrs[net] for net in port.nets])
                if collect_bit_arrivals:
                    bit_arrivals[name] = port_arr[:, lo:]
                delays = np.maximum(delays, port_arr.max(axis=0))
            elif collect_bit_arrivals:
                bit_arrivals[name] = np.zeros((port.width, n - lo))

        reported = n - lo
        result = StreamResult(
            outputs=outputs,
            delays=delays[lo:],
            switched_caps=switched[lo:],
            num_patterns=reported,
            bit_arrivals=bit_arrivals,
            signal_prob=(sig_sum / n) if collect_net_stats else None,
            toggle_counts=tog_sum if collect_net_stats else None,
        )
        return result, final_values, new_held


def _concatenate_results(
    pieces: List[StreamResult], num_nets: int
) -> StreamResult:
    """Stitch per-chunk results back into one stream-long result."""
    total = sum(piece.num_patterns for piece in pieces)
    outputs = {
        name: np.concatenate([piece.outputs[name] for piece in pieces])
        for name in pieces[0].outputs
    }
    bit_arrivals = None
    if pieces[0].bit_arrivals is not None:
        bit_arrivals = {
            name: np.concatenate(
                [piece.bit_arrivals[name] for piece in pieces], axis=1
            )
            for name in pieces[0].bit_arrivals
        }
    signal_prob = None
    toggle_counts = None
    if pieces[0].signal_prob is not None:
        signal_prob = np.zeros(num_nets)
        toggle_counts = np.zeros(num_nets)
        weight = 0
        for piece in pieces:
            # Chunk signal probabilities were averaged over the chunk's
            # simulated patterns (incl. the settling pattern of chunk 0);
            # re-weight by the simulated length.
            simulated = piece.num_patterns + (1 if weight == 0 else 0)
            signal_prob += piece.signal_prob * simulated
            toggle_counts += piece.toggle_counts
            weight += simulated
        signal_prob /= weight
    return StreamResult(
        outputs=outputs,
        delays=np.concatenate([piece.delays for piece in pieces]),
        switched_caps=np.concatenate(
            [piece.switched_caps for piece in pieces]
        ),
        num_patterns=total,
        bit_arrivals=bit_arrivals,
        signal_prob=signal_prob,
        toggle_counts=toggle_counts,
    )
