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
  the real circuit -- a separate power pass
  (:func:`repro.timing.replay.build_switched_caps`), run only by
  :meth:`CompiledCircuit.run` and by the consumers that read power.

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

:meth:`CompiledCircuit.run` is the two planes of :mod:`repro.timing.replay`
back to back: the value pass records the stream's value plane, and the
arrival replay prices it at the circuit's own delay scale.  All
per-pattern quantities are vectorized across the pattern axis; the
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
from .soa import build_plan_rows, build_soa_plan

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

#: Peak-memory target for ``chunk_size="auto"``: a pass keeps
#: ``num_nets`` rows of per-pattern arrays (the value pass uint8 values
#: and bool may flags, the power pass uint8 values and float64
#: transition densities) plus its bucket temporaries, so
#: patterns-per-chunk is bounded by this budget divided by
#: ``num_nets * _AUTO_BYTES_PER_NET``.
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
        num_patterns: Stream length.
        switched_caps: Per-pattern switched capacitance in unit caps,
            or None for a stream priced without the power pass (every
            replayed row; see :meth:`mean_switched_caps`).
        bit_arrivals: Optional port -> ``(width, n)`` per-bit arrival ns.
    """

    outputs: Dict[str, np.ndarray]
    delays: np.ndarray
    num_patterns: int
    switched_caps: Optional[np.ndarray] = None
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
        """Average switched capacitance per operation (unit caps).

        Raises:
            SimulationError: The stream carries no switched capacitance
                (it was priced without the power pass).
        """
        if self.switched_caps is None:
            raise SimulationError(
                "this stream carries no switched capacitance: price it"
                " with CompiledCircuit.run or the power pass"
                " (repro.timing.replay.build_switched_caps)"
            )
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


def fresh_circuit(
    netlist: Netlist,
    technology: Technology = DEFAULT_TECHNOLOGY,
    mode: str = DEFAULT_MODE,
) -> "CompiledCircuit":
    """The fresh compile of ``netlist``: unit delay scale, no hooks.

    Memoized on the netlist instance keyed by ``Netlist.version``,
    technology and mode (as :meth:`Netlist.cell_columns` is), so the
    stress characterization, the aged-circuit factory and a fault-free
    campaign of one netlist share one compile and its cached plans.
    The circuit refers back to its netlist, so a dropped netlist and
    its memoized compile are freed by the cyclic garbage collector,
    not at once.
    """
    cached = getattr(netlist, "_fresh_circuits", None)
    if cached is None or cached[0] != netlist.version:
        cached = (netlist.version, {})
        netlist._fresh_circuits = cached
    circuit = cached[1].get((technology, mode))
    if circuit is None:
        circuit = CompiledCircuit(netlist, technology, mode=mode)
        cached[1][technology, mode] = circuit
    return circuit


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
        self._plan_rows = None
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

    def plan_rows(self):
        """The :class:`~repro.timing.soa.PlanRows` numbering of
        :meth:`soa_plan` that the value pass and the arrival replay
        share (built lazily, cached)."""
        if self._plan_rows is None:
            self._plan_rows = build_plan_rows(self.soa_plan(), self.netlist)
        return self._plan_rows

    def _bucket_hooks(self) -> Dict:
        """``bucket -> [(row, hook), ...]`` for every bucket (numbered
        in plan order, as :meth:`plan_rows` lists them) with a hooked
        output net (built once per circuit, cached; empty for hook-free
        circuits)."""
        if self._hook_rows is None:
            hooks = self.fault_hooks
            rows: Dict = {}
            if hooks:
                for slot, bucket in enumerate(self.plan_rows().buckets):
                    hooked = [
                        (row, hooks[net])
                        for row, net in enumerate(bucket.outputs.tolist())
                        if net in hooks
                    ]
                    if hooked:
                        rows[slot] = hooked
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
    ) -> StreamResult:
        """Simulate a pattern stream.

        The stream's value plane
        (:func:`repro.timing.replay.build_value_plane`) replayed at this
        circuit's ``delay_scale`` (:class:`repro.timing.replay
        .ArrivalReplay`): there is one arrival rule, the replay's.  The
        full result also carries the stream's switched capacitance,
        from the power pass (:func:`repro.timing.replay
        .build_switched_caps`).

        Args:
            stimulus: Port name -> integer pattern values (all input ports
                must be present, all arrays equally long).
            initial: Optional port values the circuit held *before* the
                first pattern.  Defaults to the first pattern itself, so
                pattern 0 arrives on a settled, quiet circuit and reports
                zero delay.  Names must be input ports.
            collect_bit_arrivals: Keep per-output-bit arrival matrices.
            chunk_size: Run the value pass in chunks of this many
                patterns (rounded up to a multiple of 8) to bound
                memory; results are exact regardless of chunking.
                ``"auto"`` picks a chunk from :func:`auto_chunk_size` so
                peak memory stays near ``AUTO_CHUNK_TARGET_BYTES``
                regardless of ``num_nets * n``.
            fold: Deduplicate repeated ``(previous, current)`` operand
                transitions and simulate only the unique pairs (see
                :mod:`repro.timing.fold`); results are bit-identical to
                the unfolded run.  Silently bypassed for hooked circuits
                (fault hooks consume global pattern indices) and when
                the stream barely repeats.
        """
        from .replay import replay_stream

        (result,) = replay_stream(
            self,
            stimulus,
            self.delay_scale,
            initial=initial,
            collect_bit_arrivals=collect_bit_arrivals,
            fold=fold,
            chunk_size=chunk_size,
            power=True,
        )
        return result

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
