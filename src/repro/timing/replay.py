"""Two-plane stream simulation: value plane + batched arrival replay.

Aging (NBTI/PBTI drift) and process variation only rescale per-cell
*delays*: the settled values, toggle streams, bypass-group holds and
signal probabilities of a pattern stream are bit-identical at every
aging timestep and variation corner.  This module exploits that split:

* :func:`build_value_plane` runs the levelized cell loop **once** per
  stimulus (delay-free), recording everything the arrival rules consume
  -- per-net may-change flags and per-cell value-derived aux masks
  (controlling-input hits, mux selects, tri-state enables), bit-packed
  via :func:`repro.timing.logic.pack_bits` semantics -- plus all the
  delay-independent :class:`~repro.timing.engine.StreamResult` fields
  (outputs, switched capacitance, optional net stats).

* :class:`ArrivalReplay` then recomputes per-pattern path delays for one
  or *many* per-cell delay-scale vectors.  ``replay(scales)`` with a
  ``(k, num_cells)`` matrix evaluates all ``k`` aging timesteps /
  variation corners in a single numpy pass per cell: every cell's
  arrival update broadcasts over a leading corner axis, so an
  O(timesteps x full-sim) lifetime sweep becomes O(1 value pass +
  timesteps x cheap replay).

Bit-identity contract: for any scale vector ``s``,
``ArrivalReplay(circuit, plane).replay(s)`` reproduces
``CompiledCircuit(netlist, tech, s, mode, hooks).run(stimulus)`` bit for
bit -- same float op sequence through the shared
:func:`repro.timing.logic.arrival_masks` kernel, same quiet-zero
invariant, regardless of how the plane build was chunked.  This is
asserted by ``tests/test_replay.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..nets.netlist import CONST0, CONST1
from . import logic
from .engine import CompiledCircuit, StreamResult


def _aux_count(opcode: int, num_inputs: int) -> int:
    """How many aux masks :func:`logic.aux_masks` yields for a cell."""
    if logic.CONTROLLING_VALUE.get(opcode) is not None:
        return num_inputs
    if opcode in (logic.OP_MUX2, logic.OP_TRIBUF):
        return 1
    return 0


#: Peak-memory target for the SoA replay's dense ``(num_nets, k, c)``
#: per-chunk arrival matrix.
REPLAY_CHUNK_TARGET_BYTES = 128 * 1024 * 1024


def _replay_chunk_size(num_nets: int, k: int) -> int:
    """Patterns per replay chunk: a multiple of 8 (byte-aligned plane
    unpacking), at least 8, sized to the replay memory target."""
    per_pattern = max(1, num_nets) * max(1, k) * 8
    chunk = REPLAY_CHUNK_TARGET_BYTES // per_pattern
    return max(8, chunk - chunk % 8)


@dataclasses.dataclass
class ValuePlane:
    """Delay-independent record of one stimulus through one circuit.

    All boolean streams are bit-packed (8 patterns per byte, big-endian
    bit order, matching :func:`numpy.packbits`); a 16x16 multiplier's
    plane for 10k patterns is a few MB.

    Attributes:
        num_patterns: Reported stream length ``n``.
        num_nets: Net count of the owning netlist.
        num_cells: Compiled (levelized) cell count.
        mode: Delay semantics the may-masks encode (``inertial`` /
            ``floating``).
        may_packed: ``(num_nets, ceil(n / 8))`` packed per-net may-change
            masks (settled-change flags in inertial mode, may-glitch
            masks in floating mode).
        aux_packed: Packed aux-mask rows for all cells, concatenated.
        aux_offsets: ``(num_cells + 1,)`` row ranges into ``aux_packed``
            per cell position.
        outputs / switched_caps / signal_prob / toggle_counts: The
            delay-independent :class:`StreamResult` fields, shared by
            every replayed corner.
        key: Optional cache key (see :mod:`repro.timing.value_cache`).
    """

    num_patterns: int
    num_nets: int
    num_cells: int
    mode: str
    may_packed: np.ndarray
    aux_packed: np.ndarray
    aux_offsets: np.ndarray
    outputs: Dict[str, np.ndarray]
    switched_caps: np.ndarray
    signal_prob: Optional[np.ndarray] = None
    toggle_counts: Optional[np.ndarray] = None
    key: Optional[str] = None

    def may(self, net: int) -> np.ndarray:
        """Unpacked boolean may-change mask for one net."""
        return np.unpackbits(
            self.may_packed[net], count=self.num_patterns
        ).view(bool)

    def aux(self, position: int) -> "tuple[np.ndarray, ...]":
        """Unpacked aux masks for the cell at levelized ``position``."""
        lo, hi = self.aux_offsets[position], self.aux_offsets[position + 1]
        return tuple(
            np.unpackbits(self.aux_packed[row], count=self.num_patterns)
            .view(bool)
            for row in range(lo, hi)
        )

    @property
    def nbytes(self) -> int:
        """Approximate in-memory footprint of the packed planes."""
        total = self.may_packed.nbytes + self.aux_packed.nbytes
        total += self.switched_caps.nbytes
        total += sum(arr.nbytes for arr in self.outputs.values())
        return total


class _PlaneRecorder:
    """Engine-side hook capturing the value plane during ``run``.

    The engine calls :meth:`begin` once per chunk with the chunk's first
    *reported* pattern index (always a multiple of 8 -- ``run`` enforces
    byte-aligned chunk sizes when recording), then :meth:`net_may` /
    :meth:`cell` once per net/cell; masks are packed straight into their
    byte range, so chunked and unchunked builds produce identical
    planes.
    """

    def __init__(self, circuit: CompiledCircuit, num_patterns: int):
        nbytes = (num_patterns + 7) // 8
        self.may = np.zeros((circuit.num_nets, nbytes), dtype=np.uint8)
        counts = [
            _aux_count(c.opcode, len(c.inputs)) for c in circuit._cells
        ]
        self.aux_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.aux_offsets[1:])
        self.aux = np.zeros(
            (int(self.aux_offsets[-1]), nbytes), dtype=np.uint8
        )
        self._byte = 0
        self._lo = 0

    def begin(self, reported_start: int, lo: int) -> None:
        self._byte = reported_start // 8
        self._lo = lo

    def _pack_into(self, row: np.ndarray, mask: np.ndarray) -> None:
        packed = np.packbits(mask[self._lo:])
        row[self._byte:self._byte + packed.shape[0]] = packed

    def net_may(self, net: int, flags: np.ndarray) -> None:
        self._pack_into(self.may[net], flags)

    def cell(self, position, net, out_may, aux) -> None:
        self._pack_into(self.may[net], out_may)
        offset = int(self.aux_offsets[position])
        for lane, mask in enumerate(aux):
            self._pack_into(self.aux[offset + lane], mask)

    def cell_bucket(self, positions, nets, out_may, aux) -> None:
        """Batched :meth:`cell` for one SoA bucket: ``out_may`` is
        ``(B, n)`` and each aux mask ``(B, n)``; rows pack straight into
        their byte ranges exactly like the scalar path."""
        packed = np.packbits(out_may[:, self._lo:], axis=1)
        width = packed.shape[1]
        self.may[nets, self._byte:self._byte + width] = packed
        if aux:
            rows = self.aux_offsets[positions]
            for lane, mask in enumerate(aux):
                packed = np.packbits(mask[:, self._lo:], axis=1)
                self.aux[rows + lane, self._byte:self._byte + width] = (
                    packed
                )


def build_value_plane(
    circuit: CompiledCircuit,
    stimulus: Dict[str, Sequence[int]],
    initial: Optional[Dict[str, int]] = None,
    collect_net_stats: bool = False,
    chunk_size: "Optional[int | str]" = "auto",
    key: Optional[str] = None,
) -> ValuePlane:
    """Run the value pass once and capture a :class:`ValuePlane`.

    The circuit's fault hooks (if any) apply during the pass, so the
    recorded values and masks are the *faulted* stream -- a plane is
    specific to its hook set exactly like a full run is.  ``chunk_size``
    bounds peak memory as in :meth:`CompiledCircuit.run`; integer sizes
    are rounded up to a multiple of 8 so packed chunks stay
    byte-aligned.
    """
    lengths = {np.asarray(v).shape[0] for v in stimulus.values()}
    if len(lengths) != 1:
        raise SimulationError("stimulus arrays must be equally long")
    (n,) = lengths
    if isinstance(chunk_size, int) and chunk_size % 8:
        chunk_size += 8 - chunk_size % 8
    recorder = _PlaneRecorder(circuit, n)
    result = circuit.run(
        stimulus,
        initial=initial,
        collect_net_stats=collect_net_stats,
        chunk_size=chunk_size,
        _recorder=recorder,
    )
    return ValuePlane(
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
    )


@dataclasses.dataclass
class ReplayResult:
    """Arrivals for ``k`` delay corners replayed over one value plane.

    Attributes:
        plane: The value plane all corners share.
        delay_scales: The ``(k, num_cells)`` scale matrix replayed.
        delays: ``(k, n)`` per-corner, per-pattern path delays (ns).
        bit_arrivals: Optional port -> ``(width, k, n)`` per-bit arrival
            matrices.
    """

    plane: ValuePlane
    delay_scales: np.ndarray
    delays: np.ndarray
    bit_arrivals: Optional[Dict[str, np.ndarray]] = None

    @property
    def num_corners(self) -> int:
        return self.delays.shape[0]

    def max_delays(self) -> np.ndarray:
        """Per-corner worst path delay (ns), shape ``(k,)``."""
        return self.delays.max(axis=1)

    def stream_result(self, corner: int = 0) -> StreamResult:
        """One corner as a :class:`StreamResult`, bit-identical to the
        full engine run at that corner's delay scale."""
        bit_arrivals = None
        if self.bit_arrivals is not None:
            bit_arrivals = {
                name: matrix[:, corner, :]
                for name, matrix in self.bit_arrivals.items()
            }
        return StreamResult(
            outputs=self.plane.outputs,
            delays=self.delays[corner],
            switched_caps=self.plane.switched_caps,
            num_patterns=self.plane.num_patterns,
            bit_arrivals=bit_arrivals,
            signal_prob=self.plane.signal_prob,
            toggle_counts=self.plane.toggle_counts,
        )

    def stream_results(self) -> List[StreamResult]:
        """All corners as :class:`StreamResult` s, in scale-row order."""
        return [self.stream_result(k) for k in range(self.num_corners)]


class ArrivalReplay:
    """Replays the arrival plane of a circuit over a value plane.

    ``delay_scales`` rows are *absolute* per-cell scale vectors relative
    to the fresh (unaged) library delays -- exactly the ``delay_scale``
    argument of :class:`CompiledCircuit` -- independent of whatever
    scale the bound circuit itself was compiled with (only its
    structure, mode and hooks matter; values are delay-free).
    """

    def __init__(self, circuit: CompiledCircuit, plane: ValuePlane):
        if plane.num_nets != circuit.num_nets:
            raise SimulationError(
                "value plane has %d nets, circuit has %d"
                % (plane.num_nets, circuit.num_nets)
            )
        if plane.num_cells != len(circuit._cells):
            raise SimulationError(
                "value plane has %d cells, circuit has %d"
                % (plane.num_cells, len(circuit._cells))
            )
        if plane.mode != circuit.mode:
            raise SimulationError(
                "value plane was built in %r mode, circuit is %r"
                % (plane.mode, circuit.mode)
            )
        self.circuit = circuit
        self.plane = plane
        self.num_cells = len(circuit.netlist.cells)

    def replay(
        self,
        delay_scales: np.ndarray,
        collect_bit_arrivals: bool = False,
    ) -> ReplayResult:
        """Compute path delays for one or many delay-scale vectors.

        Args:
            delay_scales: ``(num_cells,)`` for a single corner or
                ``(k, num_cells)`` for a batch; entries must be
                positive.  Rows are indexed by netlist cell index (the
                :class:`CompiledCircuit` ``delay_scale`` axis).
            collect_bit_arrivals: Keep port -> ``(width, k, n)`` per-bit
                arrival matrices.
        """
        circuit = self.circuit
        plane = self.plane
        scales = np.asarray(delay_scales, dtype=float)
        if scales.ndim == 1:
            scales = scales[None, :]
        if scales.ndim != 2 or scales.shape[1] != self.num_cells:
            raise SimulationError(
                "delay_scales must be (num_cells,) or (k, num_cells) "
                "with num_cells=%d, got %r"
                % (self.num_cells, np.shape(delay_scales))
            )
        if np.any(scales <= 0):
            raise SimulationError("delay_scale entries must be positive")
        k = scales.shape[0]
        n = plane.num_patterns
        if circuit.kernel != "percell":
            delays, bit_arrivals = self._replay_soa(
                scales, k, n, collect_bit_arrivals
            )
        else:
            delays, bit_arrivals = self._replay_percell(
                scales, k, n, collect_bit_arrivals
            )
        return ReplayResult(
            plane=plane,
            delay_scales=scales,
            delays=delays,
            bit_arrivals=bit_arrivals,
        )

    def _replay_soa(
        self,
        scales: np.ndarray,
        k: int,
        n: int,
        collect_bit_arrivals: bool,
    ):
        """Bucketed sparse replay: every (level, opcode) bucket prices
        all ``k`` corners at once, touching only *active* entries.

        The chunk is laid out ``(num_nets, c, k)`` so a bucket's
        ``(B, c)`` may-mask indexes (cell, pattern) entries directly:
        arrivals are computed as a flat ``(nnz, k)`` workspace over the
        entries whose output may change and scattered into the
        pre-zeroed chunk.  Inactive entries are exactly the
        ``where(may, .., 0.0)`` zeros of the reference kernel, so the
        result stays bit-identical while arithmetic and memory traffic
        scale with the active fraction (~1/3 on a bypass multiplier
        under uniform operands, since bypassed columns sit quiet).

        The pattern axis is chunked (multiples of 8, so the bit-packed
        plane unpacks byte-aligned) to bound the dense
        ``(num_nets, c, k)`` arrival matrix; replay carries no
        cross-pattern state, so chunking is exact.
        """
        circuit = self.circuit
        plane = self.plane
        plan = circuit.soa_replay_plan()
        num_nets = circuit.num_nets
        chunk = _replay_chunk_size(num_nets, k)
        delays = np.zeros((k, n))
        ports = circuit.netlist.output_ports
        bit_arrivals: Optional[Dict[str, np.ndarray]] = None
        if collect_bit_arrivals:
            bit_arrivals = {
                name: np.zeros((port.width, k, n))
                for name, port in ports.items()
            }
        arr = np.zeros((num_nets, min(chunk, n), k))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            c = stop - start
            sub = arr[:, :c, :]
            if start:
                sub[...] = 0.0  # quiet entries / input rails stay 0
            byte0 = start // 8
            byte1 = (stop + 7) // 8
            for bucket_list in plan.levels:
                for bucket in bucket_list:
                    outs = bucket.outputs
                    pins = bucket.pins
                    may = np.unpackbits(
                        plane.may_packed[outs, byte0:byte1],
                        axis=1,
                        count=c,
                    ).view(bool)
                    rows, cols = np.nonzero(may)
                    if not rows.size:
                        continue
                    count = _aux_count(bucket.opcode, pins.shape[0])
                    if count:
                        aux_rows = plane.aux_offsets[bucket.positions]
                        aux = tuple(
                            np.unpackbits(
                                plane.aux_packed[
                                    aux_rows + lane, byte0:byte1
                                ],
                                axis=1,
                                count=c,
                            ).view(bool)[rows, cols]
                            for lane in range(count)
                        )
                    else:
                        aux = ()
                    arrs = [
                        sub[pins[j][rows], cols]
                        for j in range(pins.shape[0])
                    ]
                    # fresh_delay_ns * scale per (cell, corner), exactly
                    # the engine's per-cell delay at every corner.
                    delay = (
                        bucket.fresh_delays[:, None]
                        * scales[:, bucket.cell_indices].T
                    )
                    out = _active_arrival(
                        bucket.opcode, aux, arrs, delay[rows]
                    )
                    sub[outs[rows], cols] = out
            for name, port in ports.items():
                port_arr = sub[list(port.nets)]
                if collect_bit_arrivals:
                    bit_arrivals[name][:, :, start:stop] = (
                        port_arr.transpose(0, 2, 1)
                    )
                delays[:, start:stop] = np.maximum(
                    delays[:, start:stop], port_arr.max(axis=0).T
                )
        return delays, bit_arrivals

    def _replay_percell(
        self,
        scales: np.ndarray,
        k: int,
        n: int,
        collect_bit_arrivals: bool,
    ):
        """Reference per-cell replay (the pre-SoA interpreter)."""
        circuit = self.circuit
        plane = self.plane
        zeros_f = np.zeros(n)
        arrs: Dict[int, np.ndarray] = {CONST0: zeros_f, CONST1: zeros_f}
        for port in circuit.netlist.input_ports.values():
            for net in port.nets:
                arrs[net] = zeros_f

        # Freed (k, n) arrival buffers are pooled and reused, so the
        # replay loop settles into zero allocator traffic.
        pool: List[np.ndarray] = []

        def alloc() -> np.ndarray:
            return pool.pop() if pool else np.empty((k, n))

        protected = circuit._protected
        last_use = circuit._last_use
        for compiled in circuit._cells:
            in_arrs = [arrs[net] for net in compiled.inputs]
            out_may = plane.may(compiled.output)
            aux = plane.aux(compiled.position)
            # Matches the engine's per-cell delay bit for bit:
            # fresh_delay_ns * scale, broadcast down the corner axis.
            delay = compiled.fresh_delay_ns * scales[:, compiled.index]
            arrs[compiled.output] = _arrival_into(
                compiled.opcode,
                aux,
                in_arrs,
                delay[:, None],
                out_may,
                alloc,
                pool,
                zeros_f,
            )
            for used in compiled.inputs:
                if (
                    used not in protected
                    and last_use.get(used) == compiled.position
                ):
                    dead = arrs.pop(used, None)
                    if dead is not None and dead.shape == (k, n):
                        pool.append(dead)

        delays = np.zeros((k, n))
        bit_arrivals: Optional[Dict[str, np.ndarray]] = (
            {} if collect_bit_arrivals else None
        )
        for name, port in circuit.netlist.output_ports.items():
            port_arr = np.stack(
                [np.broadcast_to(arrs[net], (k, n)) for net in port.nets]
            )
            if collect_bit_arrivals:
                bit_arrivals[name] = port_arr
            delays = np.maximum(delays, port_arr.max(axis=0))

        return delays, bit_arrivals

    def stream(
        self,
        delay_scale: Optional[np.ndarray] = None,
        collect_bit_arrivals: bool = False,
    ) -> StreamResult:
        """Single-corner convenience: a :class:`StreamResult` for one
        scale vector (fresh delays when ``delay_scale`` is None)."""
        if delay_scale is None:
            delay_scale = np.ones(self.num_cells)
        return self.replay(
            delay_scale, collect_bit_arrivals=collect_bit_arrivals
        ).stream_result(0)


def _cols(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Pattern-axis gather that tolerates (n,) and (k, n) operands."""
    return arr[idx] if arr.ndim == 1 else arr[:, idx]


def _active_arrival(opcode, aux, arrs, delay):
    """Arrival kernel over flat *active* entries.

    Operands are ``(nnz, k)`` arrays (one row per (cell, pattern) entry
    whose output may change, all corners side by side) with ``(nnz,)``
    aux masks.  Bit-identical to :func:`repro.timing.logic
    .arrival_masks` restricted to those entries -- the elementwise
    identities are the same ones :func:`_arrival_into` uses, minus the
    quiet-zero pass (callers scatter into pre-zeroed storage, which IS
    the ``where(may, .., 0.0)`` branch).
    """
    if opcode in (logic.OP_BUF, logic.OP_INV):
        return arrs[0] + delay
    if opcode in (logic.OP_XOR2, logic.OP_XNOR2):
        out = np.maximum(arrs[0], arrs[1])
        out += delay
        return out
    if (
        logic.CONTROLLING_VALUE.get(opcode) is not None
        and len(arrs) == 2
    ):
        c0, c1 = aux
        a0, a1 = arrs
        out = np.maximum(a0, a1)
        both = np.nonzero(c0 & c1)[0]
        if both.size:
            out[both] = np.minimum(a0[both], a1[both])
        only0 = np.nonzero(c0 & ~c1)[0]
        if only0.size:
            out[only0] = a0[only0]
        only1 = np.nonzero(c1 & ~c0)[0]
        if only1.size:
            out[only1] = a1[only1]
        out += delay
        return out
    if opcode == logic.OP_MUX2:
        (sel,) = aux
        out = arrs[0].copy()
        chosen = np.nonzero(sel)[0]
        if chosen.size:
            out[chosen] = arrs[1][chosen]
        np.maximum(out, arrs[2], out=out)
        out += delay
        return out
    if opcode == logic.OP_TRIBUF:
        (enabled,) = aux
        out = arrs[0].copy()
        disabled = np.nonzero(~enabled)[0]
        if disabled.size:
            out[disabled] = 0.0
        np.maximum(out, arrs[1], out=out)
        out += delay
        return out
    # Rare shapes (3-input controlled gates): generic reference kernel
    # with an all-True may -- every row here is active by construction.
    out_may = np.ones(arrs[0].shape, dtype=bool)
    return logic.arrival_masks(
        opcode, tuple(a[:, None] for a in aux), arrs, delay, out_may
    )


def _arrival_into(opcode, aux, arrs, delay, out_may, alloc, pool, zeros_f):
    """Replay-optimized arrival kernel, bit-identical to
    :func:`repro.timing.logic.arrival_masks`.

    Works in place on pooled ``(k, n)`` buffers and replaces the generic
    ``np.where`` chains with integer-indexed partial writes: the
    selection masks depend only on values, so one ``(n,)`` index vector
    serves all ``k`` corners and the write cost scales with how often a
    case actually occurs.  Every identity used is float-exact (arrivals
    are always >= 0.0, min/max/select never round), which the
    equivalence suite asserts against full engine runs.
    """
    if not out_may.any():
        # Quiet everywhere: the engine's where(may, ..., 0) yields all
        # zeros; share the (n,) zero rail (broadcasts downstream).
        return zeros_f

    if opcode in (logic.OP_BUF, logic.OP_INV):
        out = alloc()
        np.add(arrs[0], delay, out=out)
    elif opcode in (logic.OP_XOR2, logic.OP_XNOR2):
        out = alloc()
        np.maximum(arrs[0], arrs[1], out=out)
        out += delay
    elif (
        logic.CONTROLLING_VALUE.get(opcode) is not None
        and len(arrs) == 2
    ):
        # 2-input controlled gate: base is max(a0, a1) (no controlling
        # input), a0 / a1 (one controlling input: earliest-controller
        # cap), or min(a0, a1) (both controlling).
        c0, c1 = aux
        a0, a1 = arrs
        out = alloc()
        np.maximum(a0, a1, out=out)
        both = np.nonzero(c0 & c1)[0]
        if both.size:
            out[:, both] = np.minimum(_cols(a0, both), _cols(a1, both))
        only0 = np.nonzero(c0 & ~c1)[0]
        if only0.size:
            out[:, only0] = _cols(a0, only0)
        only1 = np.nonzero(c1 & ~c0)[0]
        if only1.size:
            out[:, only1] = _cols(a1, only1)
        out += delay
    elif opcode == logic.OP_MUX2:
        (sel,) = aux
        out = alloc()
        out[:] = arrs[0]
        chosen1 = np.nonzero(sel)[0]
        if chosen1.size:
            out[:, chosen1] = _cols(arrs[1], chosen1)
        np.maximum(out, arrs[2], out=out)
        out += delay
    elif opcode == logic.OP_TRIBUF:
        (enabled,) = aux
        out = alloc()
        out[:] = arrs[0]
        disabled = np.nonzero(~enabled)[0]
        if disabled.size:
            out[:, disabled] = 0.0
        np.maximum(out, arrs[1], out=out)
        out += delay
    else:
        # Rare shapes (3-input controlled gates): generic reference
        # kernel.  delay is (k, 1), so this is a fresh (k, n) array.
        return logic.arrival_masks(opcode, aux, arrs, delay, out_may)

    quiet = np.nonzero(~out_may)[0]
    if quiet.size:
        out[:, quiet] = 0.0
    return out
