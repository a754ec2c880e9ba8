"""Unique-stimulus folding: simulate each distinct transition once.

The zero-heavy operand streams the paper's motivation rests on (Figs.
9-10: FIR coefficient reuse, silence-dominated samples) repeat the same
operand pairs constantly.  In a two-vector simulator *every* reported
per-pattern quantity -- settled outputs, path delay, switched
capacitance, per-bit arrivals -- is a pure elementwise function of the
``(previous, current)`` input-pattern pair at that index: the only
cross-pattern coupling in the engine is the one-step change detection.
So patterns whose transition pair repeats are redundant work.

:func:`fold_stimulus` deduplicates the stream over its packed
``(previous, current)`` input columns (``np.unique`` over one row per
pattern), yielding a folded stimulus that interleaves each unique pair
as ``[p_0, c_0, p_1, c_1, ...]``.  Simulating that stream, the engine's
prepended settling pattern makes every *odd* reported row the exact
two-vector result of its pair (the even rows are inter-pair transitions
and are discarded).  :func:`unfold_stream` then scatters the odd rows
back through the inverse index -- bit-identical to simulating the full
stream, at the cost of ``2 * num_unique`` simulated patterns.

Folding happens before the value plane is built
(:func:`repro.timing.replay.replay_stream`): the plane of the folded
stimulus is replayed and every corner unfolded.  It must be bypassed
when per-pattern identity does not hold: fault hooks consume the
*global* pattern index (transient flips are a function of it), so any
hooked circuit simulates unfolded.

:meth:`FoldPlan.profitable` additionally skips folding when the stream
barely repeats (``2 * num_unique`` close to ``num_patterns``) -- the
result is still exact either way, folding is purely an optimization.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from .engine import StreamResult

__all__ = ["FoldPlan", "fold_stimulus", "unfold_stream"]

#: Folding is applied when ``2 * num_unique <= FOLD_GAIN * n``.
FOLD_GAIN = 0.75
#: Streams shorter than this are never worth the dedup pass.
MIN_FOLD_PATTERNS = 64


@dataclasses.dataclass
class FoldPlan:
    """Dedup of a stimulus over its ``(previous, current)`` pairs.

    Attributes:
        folded: Port name -> ``(2 * num_unique,)`` interleaved
            ``[p_0, c_0, p_1, c_1, ...]`` stimulus covering each unique
            transition pair once.
        inverse: ``(num_patterns,)`` index of each original pattern's
            pair among the unique pairs.
        num_patterns: Original stream length.
        num_unique: Number of distinct transition pairs.
    """

    folded: Dict[str, np.ndarray]
    inverse: np.ndarray
    num_patterns: int
    num_unique: int

    @property
    def fold_factor(self) -> float:
        """Original patterns per simulated pattern (>= 0.5)."""
        return self.num_patterns / float(2 * self.num_unique)

    @property
    def profitable(self) -> bool:
        """Whether the folded run is meaningfully shorter."""
        return (
            self.num_patterns >= MIN_FOLD_PATTERNS
            and 2 * self.num_unique <= FOLD_GAIN * self.num_patterns
        )


def fold_stimulus(
    stimulus: Dict[str, Sequence[int]],
    initial: Optional[Dict[str, int]] = None,
) -> FoldPlan:
    """Build a :class:`FoldPlan` for a stimulus.

    ``initial`` is the optional pre-stream settling state (the same
    argument :meth:`CompiledCircuit.run` takes); it determines pattern
    0's *previous* vector and therefore participates in the dedup key.
    """
    names = sorted(stimulus)
    if not names:
        raise SimulationError("stimulus must contain at least one port")
    arrays = {
        name: np.asarray(stimulus[name], dtype=np.uint64)
        for name in names
    }
    lengths = {arr.shape[0] for arr in arrays.values()}
    if len(lengths) != 1:
        raise SimulationError("stimulus arrays must be equally long")
    (n,) = lengths
    if n == 0:
        raise SimulationError("stimulus must contain at least 1 pattern")

    columns = []
    for name in names:
        cur = arrays[name]
        prev = np.empty_like(cur)
        prev[0] = (
            np.uint64(initial[name])
            if initial is not None and name in initial
            else cur[0]
        )
        prev[1:] = cur[:-1]
        columns.append(prev)
        columns.append(cur)
    pairs = np.stack(columns, axis=1)
    unique, inverse = np.unique(pairs, axis=0, return_inverse=True)
    inverse = np.asarray(inverse, dtype=np.intp).ravel()

    folded = {}
    for j, name in enumerate(names):
        stream = np.empty(2 * unique.shape[0], dtype=np.uint64)
        stream[0::2] = unique[:, 2 * j]
        stream[1::2] = unique[:, 2 * j + 1]
        folded[name] = stream
    return FoldPlan(
        folded=folded,
        inverse=inverse,
        num_patterns=int(n),
        num_unique=int(unique.shape[0]),
    )


def unfold_stream(folded_result, plan: FoldPlan):
    """Scatter a folded :class:`StreamResult` back to stream order.

    The folded run reports ``2 * num_unique`` patterns; odd rows are
    the exact per-pair results (the settling prepend makes row ``2u``
    the inter-pair transition into pair ``u`` and row ``2u + 1`` the
    pair itself).  Returns a full-length result bit-identical to the
    unfolded run.
    """
    if folded_result.num_patterns != 2 * plan.num_unique:
        raise SimulationError(
            "folded result has %d patterns, plan expects %d"
            % (folded_result.num_patterns, 2 * plan.num_unique)
        )
    pick = plan.inverse
    outputs = {
        name: arr[1::2][pick]
        for name, arr in folded_result.outputs.items()
    }
    bit_arrivals = None
    if folded_result.bit_arrivals is not None:
        bit_arrivals = {
            name: matrix[..., 1::2][..., pick]
            for name, matrix in folded_result.bit_arrivals.items()
        }
    switched_caps = folded_result.switched_caps
    if switched_caps is not None:
        switched_caps = switched_caps[1::2][pick]
    return StreamResult(
        outputs=outputs,
        delays=folded_result.delays[1::2][pick],
        num_patterns=plan.num_patterns,
        switched_caps=switched_caps,
        bit_arrivals=bit_arrivals,
    )
