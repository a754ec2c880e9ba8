"""Two-plane stream simulation: value plane + batched arrival replay.

Aging (NBTI/PBTI drift) and process variation only rescale per-cell
*delays*: the settled values, toggle streams, bypass-group holds and
signal probabilities of a pattern stream are bit-identical at every
aging timestep and variation corner.  This module exploits that split:

* :func:`build_value_plane` runs the levelized cell loop **once** per
  stimulus (delay-free), recording everything the arrival rules consume
  -- per-net may-change flags and per-cell value-derived aux masks
  (controlling-input hits, mux selects, tri-state enables), bit-packed
  via :func:`repro.timing.logic.pack_bits` semantics -- plus the
  settled outputs.  Per-net activity is not recorded: it comes from the
  values-only :meth:`CompiledCircuit.toggle_counts` and
  :meth:`CompiledCircuit.signal_probability`.

* :func:`build_switched_caps` is the power pass: the same settling
  loop (:func:`_settle_chunk`) with transition densities in place of
  the masks.  Switched capacitance depends on neither the delay scale
  nor the mode, so it is priced once per (netlist, stimulus), and only
  by the consumers that read it.

* :class:`ArrivalReplay` then recomputes per-pattern path delays for one
  or *many* per-cell delay-scale vectors.  ``replay(scales)`` with a
  ``(k, num_cells)`` matrix evaluates all ``k`` aging timesteps /
  variation corners in one pass per (level, opcode) bucket, so an
  O(timesteps x full-sim) lifetime sweep becomes O(1 value pass +
  timesteps x cheap replay).  Arrivals live in a compact store with
  one ``(k,)`` row per *active* (cell, pattern) entry -- one whose
  output may change -- plus a shared quiet-zero row.  Per pattern
  chunk, the may-rows of every cell are unpacked once and a slot map
  indexed by plan row tells every pin which store row to read; pins,
  delays and ports are gathered with ``take`` (see
  ``ArrivalReplay._replay_soa``).

* :func:`replay_stream` is the one pricing sequence built on the two:
  fold the stimulus when that pays, build (or fetch from a
  :class:`~repro.timing.value_cache.ValuePlaneCache`) its plane, replay
  it, unfold.  :meth:`CompiledCircuit.run` is this sequence at the
  circuit's own delay scale plus the power pass, so
  :func:`_active_arrival` is the one arrival rule in the package (the
  delta engine prices its cones with it too).

Bit-identity contract: for any scale matrix, corner ``j`` of
``ArrivalReplay(circuit, plane).replay(scales)`` is byte-identical to
the scalar oracle ``tests/oracle.py`` run at ``scales[j]`` (outputs,
delays, bit arrivals), regardless of how the plane build or the replay
was chunked; :func:`build_switched_caps` matches the oracle's switched
capacitance to float association, and its own chunkings byte for
byte.  The oracle shares no gate rules with this package;
``tests/test_replay.py`` and ``tests/test_fuzz_engines.py`` assert the
contract.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..nets.netlist import CONST1
from . import logic
from .engine import CompiledCircuit, StreamResult, _check_delay_scales
from .engine import auto_chunk_size
from .fold import fold_stimulus, unfold_stream


#: Per-chunk memory cap of the SoA replay.  A chunk of ``c``
#: patterns holds, per (cell, pattern) entry, one ``(k,)`` float64
#: store row, one int32 slot, one mask byte and up to
#: :data:`_MAX_AUX_LANES` unpacked aux bytes:
#: ``num_cells * c * (8 * k + 8)`` bytes.  The store is sized as if
#: every entry were active, but only its active rows -- about a third
#: on the bypass multipliers -- are ever touched; the slot map, the
#: mask and the aux masks are written whole.
REPLAY_CHUNK_TARGET_BYTES = 128 * 1024 * 1024

#: Per-bucket block target of the SoA replay, in (entry, corner)
#: elements: a chunk is long enough that the mean bucket hands numpy
#: ``num_cells / num_buckets * c * k`` of them, which amortizes a
#: bucket's ~10 numpy calls, and no longer, so that a wide corner
#: batch's gathers and max/add passes stay cache-resident (DESIGN.md
#: section 11).
REPLAY_BLOCK_TARGET = 32768

#: Most aux lanes of one cell (the 3-input controlled gates).
_MAX_AUX_LANES = 3


def _replay_chunk_size(num_cells: int, num_buckets: int, k: int) -> int:
    """Patterns per replay chunk: a multiple of 8 (byte-aligned plane
    unpacking), at least 8; the smallest one whose mean per-bucket
    block reaches :data:`REPLAY_BLOCK_TARGET`, capped by
    :data:`REPLAY_CHUNK_TARGET_BYTES`."""
    num_cells = max(1, num_cells)
    k = max(1, k)
    per_pattern = num_cells * (8 * k + 5 + _MAX_AUX_LANES)
    cap = REPLAY_CHUNK_TARGET_BYTES // per_pattern
    # ceil(target * buckets / (cells * k)), rounded up to a multiple of 8.
    block = -(-REPLAY_BLOCK_TARGET * max(1, num_buckets) // (num_cells * k))
    block += -block % 8
    return max(8, min(cap - cap % 8, block))


@dataclasses.dataclass
class ValuePlane:
    """Delay-independent record of one stimulus through one circuit.

    All boolean streams are bit-packed (8 patterns per byte, big-endian
    bit order, matching :func:`numpy.packbits`); a 16x16 multiplier's
    plane for 10k patterns is a few MB.  The plane holds what the
    arrival replay reads and nothing else: switched capacitance comes
    from the separate power pass (:func:`build_switched_caps`).

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
        outputs: The settled output words, shared by every replayed
            corner.
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
        total += sum(arr.nbytes for arr in self.outputs.values())
        return total


def _pattern_chunks(
    circuit: CompiledCircuit,
    stimulus: Dict[str, Sequence[int]],
    initial: Optional[Dict[str, int]],
    chunk_size: "Optional[int | str]",
):
    """``(n, chunks)``: the stream length and the ``(arrays,
    start_index)`` pattern chunks of one pass over ``stimulus``.

    ``arrays`` are views of the stimulus with its settling pattern
    prepended (:meth:`CompiledCircuit._settled_stimulus`); the first
    chunk also holds that pattern (``start_index`` -1) and drops it
    from every result.  ``chunk_size`` bounds peak memory as in
    :meth:`CompiledCircuit.run` (None: one chunk); integer sizes are
    rounded up to a multiple of 8 so every chunk packs its masks into
    whole bytes of the plane.
    """
    _, prefixed, n = circuit._settled_stimulus(stimulus, initial)
    if isinstance(chunk_size, str):
        if chunk_size != "auto":
            raise SimulationError(
                'chunk_size must be an int, None or "auto", got %r'
                % (chunk_size,)
            )
        chunk_size = auto_chunk_size(circuit.num_nets, n)
    elif chunk_size is None:
        chunk_size = n
    elif chunk_size < 1:
        raise SimulationError("chunk_size must be >= 1")
    chunk_size += -chunk_size % 8
    chunks = []
    start = 0
    while start <= n:
        stop = min(start + chunk_size + (start == 0), n + 1)
        chunks.append(
            ({name: arr[start:stop] for name, arr in prefixed.items()},
             start - 1)
        )
        start = stop
    return n, chunks


def _settle_chunk(
    circuit: CompiledCircuit,
    V: np.ndarray,
    arrays: Dict[str, np.ndarray],
    carry_values: Optional[np.ndarray],
    start_index: int,
):
    """Settle one pattern chunk into ``V``, one plan-row block at a
    time: the gate rules both passes share.

    ``V`` is a zeroed uint8 ``(num_rows, c)`` matrix with one row per
    plan row (:meth:`CompiledCircuit.plan_rows`); the rails keep their
    net ids as rows.  ``carry_values`` holds every plan row's settled
    value at the end of the previous chunk (None for the first chunk,
    whose first column is the settling pattern), and ``start_index``
    is the global pattern index of the chunk's first column (-1 for
    the settling pattern), forwarded to fault hooks.

    Yields ``(bucket, (r0, r1), pin_rows, in_vals, changed)`` per row
    block: first each primary-input port (``bucket``, ``pin_rows`` and
    ``in_vals`` None), its port word expanded into bit rows, then each
    (level, opcode) bucket, whose pins are gathered with ``take`` and
    whose outputs are one contiguous row range.  ``changed`` flags the
    block's settled-value changes.  A fault hook rewrites its row right
    after the block is evaluated, before change detection: cells of one
    level never feed each other, so every later use -- the caller's
    masks and transitions for this block, and all downstream buckets --
    sees the faulted row.
    """
    fault_hooks = circuit.fault_hooks
    plan_rows = circuit.plan_rows()
    bucket_hooks = circuit._bucket_hooks()

    def carried(r0, r1):
        return None if carry_values is None else carry_values[r0:r1]

    V[CONST1] = 1
    r1 = CONST1 + 1
    for name, port in circuit.netlist.input_ports.items():
        r0, r1 = r1, r1 + len(port.nets)
        bits = logic.unpack_bits(arrays[name], port.width)
        for lane, net in enumerate(port.nets):
            if net in fault_hooks:
                bits[lane] = fault_hooks[net](bits[lane], start_index)
        V[r0:r1] = bits
        yield None, (r0, r1), None, None, logic.changed_matrix(
            bits, carried(r0, r1)
        )

    for slot, (bucket, (r0, r1), pin_rows) in enumerate(zip(
        plan_rows.buckets, plan_rows.spans, plan_rows.pin_rows
    )):
        in_vals = [V.take(rows, axis=0) for rows in pin_rows]
        out_val = logic.eval_vector(bucket.opcode, in_vals)
        hooked = bucket_hooks.get(slot)
        if hooked:
            # BUF/TRIBUF return their input rows: copy first.
            out_val = out_val.copy()
            for row, hook in hooked:
                out_val[row] = hook(out_val[row], start_index)
        V[r0:r1] = out_val
        yield bucket, (r0, r1), pin_rows, in_vals, logic.changed_matrix(
            out_val, carried(r0, r1)
        )


def _value_chunk(
    circuit: CompiledCircuit,
    arrays: Dict[str, np.ndarray],
    carry_values: Optional[np.ndarray],
    start_index: int,
    may: np.ndarray,
    aux: np.ndarray,
    aux_offsets: np.ndarray,
):
    """One chunk of :func:`build_value_plane`'s value pass.

    Settles the chunk (:func:`_settle_chunk`) and bit-packs its
    may-change flags and aux masks straight into their byte range of
    the plane's ``may`` and ``aux`` rows (``aux_offsets`` gives each
    cell position's first aux row); the first reported pattern must be
    a multiple of 8.  Holds a dense may matrix next to the values, one
    row per plan row; one row permutation per chunk packs it into the
    plane's per-net ``may``.  Returns ``(outputs, final_values)`` of
    the chunk's reported patterns.
    """
    plan_rows = circuit.plan_rows()
    n = next(iter(arrays.values())).shape[0]
    inertial = circuit.mode == "inertial"
    lo = 1 if carry_values is None else 0
    byte = (start_index + lo) // 8
    V = np.zeros((plan_rows.num_rows, n), dtype=np.uint8)
    M = np.zeros((plan_rows.num_rows, n), dtype=bool)
    for bucket, (r0, r1), pin_rows, in_vals, changed in _settle_chunk(
        circuit, V, arrays, carry_values, start_index
    ):
        if bucket is None:
            M[r0:r1] = changed
            continue
        masks = logic.aux_masks(bucket.opcode, in_vals)
        if inertial:
            M[r0:r1] = changed
        else:
            M[r0:r1] = logic.may_vector(
                bucket.opcode,
                in_vals,
                [M.take(rows, axis=0) for rows in pin_rows],
                masks,
            )
        if masks:
            rows = aux_offsets[bucket.positions]
            for lane, mask in enumerate(masks):
                packed = np.packbits(mask[:, lo:], axis=1)
                aux[rows + lane, byte:byte + packed.shape[1]] = packed

    packed = np.packbits(M[:, lo:], axis=1)
    may[plan_rows.row_net, byte:byte + packed.shape[1]] = packed
    outputs = {
        name: logic.pack_bits(
            V.take(plan_rows.net_row[list(port.nets)], axis=0)
        )[lo:]
        for name, port in circuit.netlist.output_ports.items()
    }
    return outputs, V[:, -1].copy()


def build_value_plane(
    circuit: CompiledCircuit,
    stimulus: Dict[str, Sequence[int]],
    initial: Optional[Dict[str, int]] = None,
    chunk_size: "Optional[int | str]" = "auto",
    key: Optional[str] = None,
) -> ValuePlane:
    """Run the value pass once and capture a :class:`ValuePlane`.

    The circuit's fault hooks (if any) apply during the pass, so the
    recorded values and masks are the *faulted* stream -- a plane is
    specific to its hook set exactly like a full run is.  ``chunk_size``
    bounds peak memory as in :meth:`CompiledCircuit.run` (see
    :func:`_pattern_chunks`); chunked and unchunked builds produce
    identical planes.
    """
    n, chunks = _pattern_chunks(circuit, stimulus, initial, chunk_size)
    nbytes = (n + 7) // 8
    may = np.zeros((circuit.num_nets, nbytes), dtype=np.uint8)
    aux_offsets = circuit.plan_rows().aux_offsets
    aux = np.zeros((int(aux_offsets[-1]), nbytes), dtype=np.uint8)
    pieces = []
    carry_values: Optional[np.ndarray] = None
    for arrays, start_index in chunks:
        outputs, carry_values = _value_chunk(
            circuit, arrays, carry_values, start_index, may, aux,
            aux_offsets,
        )
        pieces.append(outputs)
    return ValuePlane(
        num_patterns=n,
        num_nets=circuit.num_nets,
        num_cells=len(circuit._cells),
        mode=circuit.mode,
        may_packed=may,
        aux_packed=aux,
        aux_offsets=aux_offsets,
        outputs={
            name: np.concatenate([outputs[name] for outputs in pieces])
            for name in pieces[0]
        },
        key=key,
    )


def build_switched_caps(
    circuit: CompiledCircuit,
    stimulus: Dict[str, Sequence[int]],
    initial: Optional[Dict[str, int]] = None,
    chunk_size: "Optional[int | str]" = "auto",
) -> np.ndarray:
    """The power pass: per-pattern switched capacitance (unit caps) of
    ``stimulus``, shape ``(n,)``.

    Settles every chunk as the value pass does (:func:`_settle_chunk`)
    and propagates transition densities next to the values
    (:func:`repro.timing.logic.transition_vector`, damped by the
    technology's ``glitch_damping``), summing each bucket's
    capacitance-weighted transitions.  Switched capacitance depends on
    the values alone: not on the delay scale and not on the delay
    mode, so one pass serves every aging row and both modes.  Fault
    hooks apply as in the value pass.  Chunked and unchunked passes
    give the same bytes.
    """
    damping = circuit.technology.glitch_damping
    num_rows = circuit.plan_rows().num_rows
    _, chunks = _pattern_chunks(circuit, stimulus, initial, chunk_size)
    pieces = []
    carry_values: Optional[np.ndarray] = None
    for arrays, start_index in chunks:
        n = next(iter(arrays.values())).shape[0]
        V = np.zeros((num_rows, n), dtype=np.uint8)
        T = np.zeros((num_rows, n))
        switched = np.zeros(n)
        for bucket, (r0, r1), pin_rows, in_vals, changed in _settle_chunk(
            circuit, V, arrays, carry_values, start_index
        ):
            out = T[r0:r1]
            if bucket is None:
                out[...] = changed
                continue
            logic.transition_vector(
                bucket.opcode,
                in_vals,
                [T.take(rows, axis=0) for rows in pin_rows],
                changed,
                damping=damping,
                out=out,
            )
            # Reduce over the cell axis with an explicit sum (not a
            # BLAS matvec): the accumulation then depends only on the
            # bucket size, so chunked and unchunked passes produce
            # bit-identical switched capacitance.
            switched += (bucket.caps[:, None] * out).sum(axis=0)
        pieces.append(switched[1:] if carry_values is None else switched)
        carry_values = V[:, -1].copy()
    return np.concatenate(pieces)


def replay_stream(
    circuit: CompiledCircuit,
    stimulus: Dict[str, Sequence[int]],
    delay_scales: np.ndarray,
    initial: Optional[Dict[str, int]] = None,
    collect_bit_arrivals: bool = False,
    fold: bool = False,
    chunk_size: "Optional[int | str]" = "auto",
    cache=None,
    power: bool = False,
) -> List[StreamResult]:
    """Stream results of ``stimulus`` for each delay-scale row: fold,
    build the value plane, replay it, unfold.

    The one pricing sequence behind :meth:`CompiledCircuit.run` and
    :meth:`~repro.timing.value_cache.ValuePlaneCache.replay_scales`.
    ``fold`` deduplicates repeated operand transitions first (see
    :mod:`repro.timing.fold`), and is bypassed for hooked circuits and
    for streams that barely repeat; the plane of the (possibly folded)
    stimulus comes from ``cache.get_or_build`` when a
    :class:`~repro.timing.value_cache.ValuePlaneCache` is given, else
    from :func:`build_value_plane`.  ``power`` adds the (possibly
    folded) stimulus's :func:`build_switched_caps` to every row; without
    it the results carry no switched capacitance.
    """
    plan = None
    if fold and not circuit.fault_hooks:
        arrays, _, _ = circuit._settled_stimulus(stimulus, initial)
        plan = fold_stimulus(arrays, initial)
        if plan.profitable:
            stimulus, initial = plan.folded, None
        else:
            plan = None
    if cache is None:
        plane = build_value_plane(circuit, stimulus, initial, chunk_size)
    else:
        plane = cache.get_or_build(circuit, stimulus, initial, chunk_size)
    results = ArrivalReplay(circuit, plane).replay(
        delay_scales, collect_bit_arrivals=collect_bit_arrivals
    ).stream_results()
    if power:
        caps = build_switched_caps(circuit, stimulus, initial, chunk_size)
        for result in results:
            result.switched_caps = caps
    if plan is None:
        return results
    return [unfold_stream(result, plan) for result in results]


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
        full engine run at that corner's delay scale, without its
        switched capacitance (the plane records none)."""
        bit_arrivals = None
        if self.bit_arrivals is not None:
            bit_arrivals = {
                name: matrix[:, corner, :]
                for name, matrix in self.bit_arrivals.items()
            }
        return StreamResult(
            outputs=self.plane.outputs,
            delays=self.delays[corner],
            num_patterns=self.plane.num_patterns,
            bit_arrivals=bit_arrivals,
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
                finite and positive.  Rows are indexed by netlist cell
                index (the :class:`CompiledCircuit` ``delay_scale``
                axis).
            collect_bit_arrivals: Keep port -> ``(width, k, n)`` per-bit
                arrival matrices.
        """
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
        _check_delay_scales(scales)
        k = scales.shape[0]
        n = plane.num_patterns
        delays, bit_arrivals = self._replay_soa(
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
        """Bucketed sparse replay into a compact active-entry store.

        Only *active* entries -- the (cell, pattern) pairs whose output
        may change, about a third on a bypass multiplier under uniform
        operands -- are ever priced.  Nets are numbered by the plan
        rows the value pass uses (:meth:`CompiledCircuit.plan_rows`):
        the rails and primary inputs first, then each bucket's cells as
        one contiguous row range.  Each pattern chunk of ``c`` patterns
        gets one slot schedule:

        * the may-rows of every cell output are unpacked once, in plan
          order, into a ``(num_cells, c)`` mask, and one row sum gives
          each row's active count;
        * each bucket's active entries are the ``nonzero`` of its one
          contiguous mask slice, and they take the next rows
          ``[lo, hi)`` of a ``(1 + nnz, k)`` store whose row 0 is the
          shared quiet zero: a cell whose output may not change has
          arrival 0.0;
        * a ``(num_rows, c)`` int32 slot map, zeroed per chunk, records
          each entry's store row; quiet entries, and the input and rail
          rows, which are never written, read row 0;
        * the aux rows are unpacked once, permuted so that every
          bucket's lane is one contiguous row range.

        A bucket's pin slots are its pins' rows of the slot map taken
        at its active entries, its delay rows are its rows of the
        per-call ``(num_cells, k)`` ``fresh_delay * scale`` table
        repeated by each row's active count, and
        :func:`_active_arrival` writes straight into ``store[lo:hi]``;
        the output ports gather their plan rows the same way.  Every
        row gather is ``ndarray.take(..., axis=0)``: several times
        faster than 2-D fancy indexing at small ``k`` and no slower at
        Monte Carlo's, so there is one path for every ``k``.

        The per-entry indices of a bucket (active entries, pin slots,
        aux masks) are dropped with the bucket; the masks and the slot
        map live for one chunk; nothing outlives the call -- kept on
        the plane, the int indices would outweigh the arrivals at small
        ``k``.  The pattern axis is chunked (multiples of 8, so the
        bit-packed plane unpacks byte-aligned; see
        :func:`_replay_chunk_size`); replay carries no cross-pattern
        state, so chunking is exact.  One store buffer and one slot
        buffer, sized for a full chunk, serve every chunk: only store
        rows that are written are paged in, and reusing them spares
        each chunk the page faults of a fresh allocation.
        """
        circuit = self.circuit
        plane = self.plane
        plan_rows = circuit.plan_rows()
        base = plan_rows.base
        num_rows = plan_rows.num_rows
        num_cells = num_rows - base
        chunk = _replay_chunk_size(
            num_cells, len(plan_rows.buckets), k
        )
        span = min(chunk, n)
        # Per bucket: its rows among the cells, its pin rows and the
        # first row of each aux lane in the permuted aux block.
        schedule = []
        aux_order = [np.zeros(0, dtype=np.int64)]
        aux_row = 0
        for bucket, (r0, r1), pin_rows in zip(
            plan_rows.buckets, plan_rows.spans, plan_rows.pin_rows
        ):
            positions = plane.aux_offsets[bucket.positions]
            lanes = []
            for lane in range(logic.aux_count(bucket.opcode, len(pin_rows))):
                aux_order.append(positions + lane)
                lanes.append(aux_row)
                aux_row += r1 - r0
            schedule.append(
                (bucket.opcode, r0 - base, r1 - base, pin_rows, lanes)
            )
        aux_order = np.concatenate(aux_order)
        # fresh_delay_ns * scale per (cell row, corner), exactly the
        # engine's per-cell delay at every corner.
        delay = np.multiply(
            plan_rows.fresh_delays[:, None],
            scales.take(plan_rows.cell_indices, axis=1).T,
            order="C",
        )
        cell_nets = plan_rows.row_net[base:]
        delays = np.zeros((k, n))
        ports = [
            (name, plan_rows.net_row[list(port.nets)])
            for name, port in circuit.netlist.output_ports.items()
        ]
        bit_arrivals: Optional[Dict[str, np.ndarray]] = None
        if collect_bit_arrivals:
            bit_arrivals = {
                name: np.zeros((rows.shape[0], k, n)) for name, rows in ports
            }
        store = np.empty((1 + num_cells * span, k))
        store[0] = 0.0
        # Active entries number fewer than 2**31, and int32 keeps the
        # map at 4 bytes per (cell, pattern) entry.
        slot_buf = np.empty(num_rows * span, dtype=np.int32)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            c = stop - start
            byte0 = start // 8
            byte1 = (stop + 7) // 8
            may = np.unpackbits(
                plane.may_packed[:, byte0:byte1].take(cell_nets, axis=0),
                axis=1,
                count=c,
            ).view(bool)
            per_row = may.sum(axis=1, dtype=np.int32)
            aux = np.unpackbits(
                plane.aux_packed[:, byte0:byte1].take(aux_order, axis=0),
                axis=1,
                count=c,
            ).view(bool)
            flat_slots = slot_buf[:num_rows * c]
            flat_slots[:] = 0
            slots = flat_slots.reshape(num_rows, c)
            hi = 1
            for opcode, s0, s1, pin_rows, lanes in schedule:
                # Flat (row * c + col) entries of the bucket's rows.
                active = may[s0:s1].ravel().nonzero()[0]
                if not active.size:
                    continue
                lo, hi = hi, hi + active.size
                _active_arrival(
                    opcode,
                    tuple(
                        aux[row:row + s1 - s0].ravel().take(active)
                        for row in lanes
                    ),
                    [
                        store.take(
                            slots.take(pins, axis=0).take(active), axis=0
                        )
                        for pins in pin_rows
                    ],
                    delay[s0:s1].repeat(per_row[s0:s1], axis=0),
                    out=store[lo:hi],
                )
                flat_slots[(base + s0) * c:(base + s1) * c][active] = (
                    np.arange(lo, hi, dtype=np.int32)
                )
            for name, rows in ports:
                port_arr = store.take(slots.take(rows, axis=0), axis=0)
                if collect_bit_arrivals:
                    bit_arrivals[name][:, :, start:stop] = (
                        port_arr.transpose(0, 2, 1)
                    )
                delays[:, start:stop] = np.maximum(
                    delays[:, start:stop], port_arr.max(axis=0).T
                )
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


def _active_arrival(opcode, aux, arrs, delay, out=None):
    """The arrival rule, over flat *active* entries.

    Operands are ``(nnz, k)`` arrays (one row per (cell, pattern) entry
    whose output may change, all corners side by side) with ``(nnz,)``
    aux masks; ``delay`` is the matching ``(nnz, k)`` block or one
    ``(k,)`` row for a single cell.  Per opcode (DESIGN.md section 5):

    * BUF/INV, XOR2/XNOR2: the latest pin plus the cell delay;
    * gates with a controlling value: the earliest controlling pin
      where any pin controls (a quiet controlling pin pins the output),
      else the latest pin;
    * MUX2: the select and the selected data pin (the settled select
      isolates the other one);
    * TRIBUF: the enable, and the data pin only while enabled.

    Quiet entries are not priced: callers read them as 0.0 (the replay
    store's row 0, the delta cone's zeroed rows), the same zero a quiet
    pin contributes.  The pin operands are the caller's scratch copies
    and may be overwritten.  Integer-indexed partial writes select
    among pins; every identity is float-exact (arrivals are >= 0.0 and
    min/max/select never round).  The result is written into ``out``
    when given, else into a new array.  This is the one arrival rule of
    :mod:`repro.timing`: replay, :meth:`CompiledCircuit.run`, the delta
    base and the delta cone all price through it.
    """
    if out is None:
        out = np.empty_like(arrs[0])
    if opcode in (logic.OP_BUF, logic.OP_INV):
        return np.add(arrs[0], delay, out=out)
    if opcode in (logic.OP_XOR2, logic.OP_XNOR2):
        np.maximum(arrs[0], arrs[1], out=out)
        out += delay
        return out
    if (
        logic.CONTROLLING_VALUE.get(opcode) is not None
        and len(arrs) == 2
    ):
        c0, c1 = aux
        a0, a1 = arrs
        # Where exactly one pin controls, zero the other: the max then
        # is the controlling pin (arrivals are >= 0.0).  On bools,
        # ``x > y`` is ``x & ~y``.
        a1[(c0 > c1).nonzero()[0]] = 0.0
        a0[(c1 > c0).nonzero()[0]] = 0.0
        np.maximum(a0, a1, out=out)
        both = (c0 & c1).nonzero()[0]
        if both.size:
            out[both] = np.minimum(
                a0.take(both, axis=0), a1.take(both, axis=0)
            )
        out += delay
        return out
    if opcode == logic.OP_MUX2:
        (sel,) = aux
        out[...] = arrs[0]
        chosen = sel.nonzero()[0]
        if chosen.size:
            out[chosen] = arrs[1].take(chosen, axis=0)
        np.maximum(out, arrs[2], out=out)
        out += delay
        return out
    if opcode == logic.OP_TRIBUF:
        (enabled,) = aux
        out[...] = arrs[0]
        disabled = (~enabled).nonzero()[0]
        if disabled.size:
            out[disabled] = 0.0
        np.maximum(out, arrs[1], out=out)
        out += delay
        return out
    if logic.CONTROLLING_VALUE.get(opcode) is not None:
        # Three-input controlled gates (AND3, OR3): the earliest
        # controlling pin where any pin controls, else the latest pin.
        np.maximum(arrs[0], arrs[1], out=out)
        for arr in arrs[2:]:
            np.maximum(out, arr, out=out)
        first = np.full_like(out, np.inf)
        for arr, ctrl in zip(arrs, aux):
            hit = ctrl.nonzero()[0]
            if hit.size:
                first[hit] = np.minimum(
                    first.take(hit, axis=0), arr.take(hit, axis=0)
                )
        controlled = np.logical_or.reduce(aux).nonzero()[0]
        if controlled.size:
            out[controlled] = first.take(controlled, axis=0)
        out += delay
        return out
    raise SimulationError("no arrival rule for opcode %r" % (opcode,))
