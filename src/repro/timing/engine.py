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
  the real circuit.

Per-net *activity* -- signal probabilities (the BTI stress input) and
toggle counts (the electromigration input) -- is delay-free, so it comes
from a separate values-only pass over the same plan
(:meth:`CompiledCircuit.signal_probability`,
:meth:`CompiledCircuit.toggle_counts`), not from :meth:`CompiledCircuit.run`.

Two delay semantics are available (see DESIGN.md section 5):

* ``mode="inertial"`` (default): only nets whose settled value changes
  propagate arrivals -- the glitch-filtered "last transition" a
  switch-level simulator reports; this is what the paper's per-pattern
  delay distributions correspond to;
* ``mode="floating"``: hazard-pessimistic; arrivals provably upper-bound
  the event-driven transport-delay settle time (cross-checked in tests).

All per-pattern quantities are vectorized across the pattern axis; the
Python-level loop runs once per (level, opcode) bucket, not once per
pattern.  Memory stays bounded by chunking the pattern axis; exactness
across chunk boundaries is preserved by carrying each net's final value.
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
#: The mode circuits compile in unless told otherwise.
DEFAULT_MODE = MODES[0]

#: Peak-memory target for ``chunk_size="auto"``: the streaming loop keeps
#: ``num_nets`` rows of per-pattern arrays (uint8 value, bool may,
#: float64 arrival, float64 transition density), so patterns-per-chunk
#: is bounded by this budget divided by ``num_nets * _AUTO_BYTES_PER_NET``.
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
        num_patterns: Stream length.
    """

    outputs: Dict[str, np.ndarray]
    delays: np.ndarray
    switched_caps: np.ndarray
    num_patterns: int
    bit_arrivals: Optional[Dict[str, np.ndarray]] = None

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


def _check_delay_scales(scales: np.ndarray, error=SimulationError) -> None:
    """Refuse delay-scale entries that are not finite and positive.

    NaN and +-inf slip past a plain ``<= 0`` test and would surface
    only as NaN or inf path delays, so every entry point that accepts
    scales (:class:`CompiledCircuit`, ``ArrivalReplay.replay`` and the
    delta base and replay) fails here instead, with its own error type.
    """
    if not (np.isfinite(scales).all() and (scales > 0).all()):
        raise error("delay_scale entries must be finite and positive")


class CompiledCircuit:
    """A netlist compiled for vectorized stream simulation.

    Args:
        netlist: A validated combinational :class:`Netlist`.
        technology: Supplies the delay unit (ns per logical-effort unit).
        delay_scale: Optional per-cell multiplicative delay factors
            (indexed by cell index; finite and positive) -- this is how
            aging enters timing.
        mode: Delay semantics, ``"inertial"`` or ``"floating"``.
        fault_hooks: Optional net id -> :data:`FaultHook` mapping.  Each
            hook rewrites that net's settled-value stream *before* change
            detection, so arrivals, switching activity and downstream
            logic all see the faulted values (this is how stuck-at and
            transient value faults enter the simulation; delay faults
            enter through ``delay_scale``).  Constant rails cannot be
            hooked.
    """

    def __init__(
        self,
        netlist: Netlist,
        technology: Technology = DEFAULT_TECHNOLOGY,
        delay_scale: Optional[np.ndarray] = None,
        mode: str = DEFAULT_MODE,
        fault_hooks: Optional[Dict[int, FaultHook]] = None,
    ):
        if mode not in MODES:
            raise SimulationError(
                "mode must be one of %s, got %r" % (MODES, mode)
            )
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
            _check_delay_scales(scale)
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

        self.num_nets = netlist.num_nets
        self._reach_masks: Optional[List[int]] = None
        self._cell_delays: Optional[np.ndarray] = None
        self._soa_plan = None
        self._hook_rows = None

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
            self.fault_hooks,
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

    def soa_plan(self):
        """The bucketed :class:`~repro.timing.soa.SoAPlan` shared by the
        stream run, the values-only pass, arrival replay and the delta
        engine (built lazily, cached)."""
        if self._soa_plan is None:
            self._soa_plan = build_soa_plan(
                self._cells, self.netlist.cell_levels()
            )
        return self._soa_plan

    def _bucket_hooks(self) -> Dict:
        """``(level, bucket) -> [(row, hook), ...]`` for every bucket
        with a hooked output net (built once per circuit, cached; empty
        for hook-free circuits)."""
        if self._hook_rows is None:
            hooks = self.fault_hooks
            rows: Dict = {}
            if hooks:
                levels = self.soa_plan().levels
                for depth, bucket_list in enumerate(levels):
                    for slot, bucket in enumerate(bucket_list):
                        hooked = [
                            (row, hooks[net])
                            for row, net in enumerate(bucket.outputs.tolist())
                            if net in hooks
                        ]
                        if hooked:
                            rows[depth, slot] = hooked
            self._hook_rows = rows
        return self._hook_rows

    # ------------------------------------------------------------------

    def run(
        self,
        stimulus: Dict[str, Sequence[int]],
        initial: Optional[Dict[str, int]] = None,
        collect_bit_arrivals: bool = False,
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
                pattern indices; value-plane recording needs every
                pattern) or when the stream barely repeats.
            _recorder: Internal -- a value-plane recorder (see
                :mod:`repro.timing.replay`).  When set, arrival
                computation is skipped (the recorder captures the masks
                needed to replay it) and the returned ``delays`` /
                ``bit_arrivals`` are not meaningful.
        """
        arrays, prefixed, n = self._settled_stimulus(stimulus, initial)

        if fold and not self.fault_hooks and _recorder is None:
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

        if chunk_size is None or chunk_size >= n + 1:
            result, _ = self._run_chunk(
                prefixed,
                carry_values=None,
                collect_bit_arrivals=collect_bit_arrivals,
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
        total = n + 1
        start = 0
        first_chunk = True
        while start < total:
            stop = min(start + chunk_size + (1 if first_chunk else 0), total)
            chunk = {name: arr[start:stop] for name, arr in prefixed.items()}
            result, carry_values = self._run_chunk(
                chunk,
                carry_values=carry_values,
                collect_bit_arrivals=collect_bit_arrivals,
                drop_first=first_chunk,
                start_index=start - 1,
                recorder=_recorder,
            )
            pieces.append(result)
            start = stop
            first_chunk = False
        return _concatenate_results(pieces)

    def signal_probability(
        self, stimulus: Dict[str, Sequence[int]]
    ) -> np.ndarray:
        """Per-net probability of logic 1 over a pattern stream.

        The prepended settling pattern counts in the denominator, so the
        result is ``V.sum(axis=1) / (n + 1)`` over the settled-value
        matrix of :meth:`_settled_values`.  This is all the BTI stress
        model reads.  Stress is a property of the fault-free design, so
        a circuit with fault hooks is refused.
        """
        V = self._settled_values(stimulus, "signal_probability")
        return V.sum(axis=1) / V.shape[1]

    def toggle_counts(
        self, stimulus: Dict[str, Sequence[int]]
    ) -> np.ndarray:
        """Per-net functional (zero-delay) toggle totals over a stream.

        Counts settled-value changes between consecutive columns of the
        :meth:`_settled_values` matrix (its settling column repeats
        pattern 0, so pattern 0 never toggles).  A bypass-group cell
        holds its value while the group's enable is low -- its tri-state
        hold -- so its count comes from
        :func:`repro.timing.logic.tribuf_masked_toggles`, one call per
        group enable over all the cells it gates.  Returned as float64
        totals, the input of
        :func:`repro.aging.electromigration.cell_toggle_rates`.  Toggles
        are delay-independent, so any aging point of one design gives
        the same counts; a circuit with fault hooks is refused.
        """
        V = self._settled_values(stimulus, "toggle_counts")
        counts = np.count_nonzero(V[:, 1:] != V[:, :-1], axis=1).astype(
            float
        )
        enables = self.netlist.group_enables
        held: Dict[int, List[int]] = {}
        for compiled in self._cells:
            if compiled.group in enables:
                held.setdefault(enables[compiled.group], []).append(
                    compiled.output
                )
        for enable, outs in held.items():
            toggles, _ = logic.tribuf_masked_toggles(V[outs], V[enable])
            counts[outs] = toggles.sum(axis=1)
        return counts

    # ------------------------------------------------------------------

    def _settled_values(
        self, stimulus: Dict[str, Sequence[int]], what: str
    ) -> np.ndarray:
        """Every net's settled value per pattern: a uint8
        ``(num_nets, n + 1)`` matrix whose column 0 is the settling
        pattern -- no arrivals, transitions or switched capacitance.

        The pass is unchunked, so it holds ``num_nets * (n + 1)`` bytes:
        23 MB for the 16x16 column-bypass design at 10,000 patterns,
        100 MB for the 32x32 row-bypass design.  It evaluates
        :meth:`soa_plan` a bucket at a time.  ``what`` names the caller
        in the refusal of a hooked circuit.
        """
        if self.fault_hooks:
            raise SimulationError(
                "%s needs a fault-free circuit, this one has %d fault "
                "hooks" % (what, len(self.fault_hooks))
            )
        _, prefixed, n = self._settled_stimulus(stimulus)
        V = np.zeros((self.num_nets, n + 1), dtype=np.uint8)
        V[CONST1] = 1
        for name, port in self.netlist.input_ports.items():
            V[list(port.nets)] = logic.unpack_bits(prefixed[name], port.width)
        for bucket_list in self.soa_plan().levels:
            for bucket in bucket_list:
                V[bucket.outputs] = logic.eval_vector(
                    bucket.opcode, [V[pins] for pins in bucket.pins]
                )
        return V

    def _settled_stimulus(
        self,
        stimulus: Dict[str, Sequence[int]],
        initial: Optional[Dict[str, int]] = None,
    ):
        """Validate a stimulus and prepend its settling pattern.

        Returns ``(arrays, prefixed, n)``: the port -> uint64 pattern
        arrays, the same arrays with the settling pattern (the state the
        circuit held before pattern 0: ``initial`` where given, else
        pattern 0 itself) prepended, and the stream length ``n``.  Index
        0 of the simulated stream is dropped from all per-pattern
        results, so delays/toggles are exact two-vector quantities for
        every reported pattern.
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
        for name, arr in arrays.items():
            if arr.ndim != 1:
                raise SimulationError(
                    "stimulus port %r must be a 1-D pattern array, got"
                    " shape %s" % (name, arr.shape)
                )
        lengths = {arr.shape[0] for arr in arrays.values()}
        if len(lengths) != 1:
            raise SimulationError("stimulus arrays must be equally long")
        (n,) = lengths
        if n == 0:
            raise SimulationError("stimulus must contain at least 1 pattern")
        prefixed = {}
        for name, arr in arrays.items():
            first = (
                np.uint64(initial[name])
                if initial is not None and name in initial
                else arr[0]
            )
            prefixed[name] = np.concatenate(([first], arr))
        return arrays, prefixed, n

    def _run_chunk(
        self,
        arrays: Dict[str, np.ndarray],
        carry_values: Optional[np.ndarray],
        collect_bit_arrivals: bool,
        drop_first: bool,
        start_index: int = -1,
        recorder=None,
    ):
        """Simulate one chunk, one (level, opcode) bucket at a time.

        ``carry_values`` holds every net's settled value at the end of
        the previous chunk (None for the first chunk, which instead
        starts with the prepended settling pattern and ``drop_first``).
        ``start_index`` is the global pattern index of the chunk's first
        element (-1 for the settling pattern), forwarded to fault hooks.
        ``recorder``, when set, captures the value plane instead of
        computing arrivals.  Returns ``(result, final_values)``.

        Holds dense ``(num_nets, n)`` value / may / transition (and,
        unless recording, arrival) matrices and evaluates one
        (level, opcode) bucket per batched kernel call.  A fault hook
        rewrites its cell's row right after the bucket's values are
        evaluated, before change detection: cells of one level never
        feed each other, so every later use -- this bucket's masks,
        arrivals and transitions, and all downstream buckets -- sees
        the faulted row.
        """
        fault_hooks = self.fault_hooks
        netlist = self.netlist
        plan = self.soa_plan()
        bucket_hooks = self._bucket_hooks()
        n = next(iter(arrays.values())).shape[0]
        num_nets = self.num_nets
        inertial = self.mode == "inertial"
        damping = self.technology.glitch_damping
        lo = 1 if drop_first else 0
        if recorder is not None:
            recorder.begin(start_index + lo, lo)

        V = np.zeros((num_nets, n), dtype=np.uint8)
        V[CONST1] = 1
        M = np.zeros((num_nets, n), dtype=bool)
        T = np.zeros((num_nets, n))
        A = None if recorder is not None else np.zeros((num_nets, n))
        switched = np.zeros(n)

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

        for depth, bucket_list in enumerate(plan.levels):
            for slot, bucket in enumerate(bucket_list):
                pins = bucket.pins
                outs = bucket.outputs
                in_vals = [V[pins[j]] for j in range(pins.shape[0])]
                out_val = logic.eval_vector(bucket.opcode, in_vals)
                hooked = bucket_hooks.get((depth, slot))
                if hooked:
                    # BUF/TRIBUF return their input rows: copy first.
                    out_val = out_val.copy()
                    for row, hook in hooked:
                        out_val[row] = hook(out_val[row], start_index)
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

        result = StreamResult(
            outputs=outputs,
            delays=delays[lo:],
            switched_caps=switched[lo:],
            num_patterns=n - lo,
            bit_arrivals=bit_arrivals,
        )
        return result, final_values


def _concatenate_results(pieces: List[StreamResult]) -> StreamResult:
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
    return StreamResult(
        outputs=outputs,
        delays=np.concatenate([piece.delays for piece in pieces]),
        switched_caps=np.concatenate(
            [piece.switched_caps for piece in pieces]
        ),
        num_patterns=total,
        bit_arrivals=bit_arrivals,
    )
