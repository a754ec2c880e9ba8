"""The aging indicator (Section III-A, Fig. 12).

A counter tallies Razor errors over a fixed observation window of
operations (the paper uses 100) and is reset at each window boundary.
When a window accumulates at least the threshold number of errors (the
paper uses 10, i.e. a 10% error rate), the indicator raises its output:
the circuit has aged enough that the current judging criterion
mispredicts too often, and the AHL switches to the stricter
Skip-(n+1) block.

The paper's indicator is monotone (once aged, stay aged); setting
``sticky=False`` lets it relax again when errors subside -- an extension
the ablation benchmarks explore.

:func:`walk_stream` walks a whole stream at once for the one control
loop (:func:`repro.core.architecture.run_control_loop`): the stream is
judged under both blocks, and the walk feeds each window's count under
the block the indicator selected to :meth:`AgingIndicator.record_window`.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from ..config import DEFAULT_SIM_CONFIG, SimulationConfig
from ..errors import SimulationError


class AgingIndicator:
    """Error-rate watchdog driving the AHL's judging-block mux."""

    def __init__(self, config: SimulationConfig = DEFAULT_SIM_CONFIG):
        self.config = config
        self._aged = False
        self._errors_in_window = 0
        self._ops_in_window = 0
        self._windows_observed = 0
        self._aged_at_op: int = -1
        self._total_ops = 0

    @property
    def aged(self) -> bool:
        """Current indicator output: 1 selects the stricter block."""
        return self._aged

    def selects_strict(self, adaptive: bool) -> bool:
        """Whether the mux selects the stricter Skip-(n+1) block: once
        aged, in an ``adaptive`` design (a traditional one never
        switches).  The one definition of which block judges."""
        return adaptive and self._aged

    @property
    def aged_at_op(self) -> int:
        """Operation index at which the indicator first flipped (-1: never)."""
        return self._aged_at_op

    @property
    def windows_observed(self) -> int:
        return self._windows_observed

    def record(self, error: bool) -> None:
        """Feed one operation's Razor outcome."""
        self._errors_in_window += bool(error)
        self._ops_in_window += 1
        self._total_ops += 1
        if self._ops_in_window >= self.config.indicator_window:
            self._close_window()

    def record_window(self, num_ops: int, num_errors: int) -> None:
        """Feed a whole window at once (vectorized simulation path).

        ``num_ops`` must not straddle a window boundary relative to the
        operations already recorded.
        """
        if num_errors < 0 or num_ops < 0 or num_errors > num_ops:
            raise SimulationError("invalid window counts")
        if self._ops_in_window + num_ops > self.config.indicator_window:
            raise SimulationError(
                "record_window would straddle a window boundary"
            )
        self._errors_in_window += num_errors
        self._ops_in_window += num_ops
        self._total_ops += num_ops
        if self._ops_in_window >= self.config.indicator_window:
            self._close_window()

    def _close_window(self) -> None:
        exceeded = self._errors_in_window >= self.config.indicator_threshold
        if exceeded and not self._aged:
            self._aged = True
            self._aged_at_op = self._total_ops
        elif not exceeded and self._aged and not self.config.indicator_sticky:
            self._aged = False
        self._errors_in_window = 0
        self._ops_in_window = 0
        self._windows_observed += 1

    def reset(self) -> None:
        """Back to the fresh state (new lifetime)."""
        self._aged = False
        self._errors_in_window = 0
        self._ops_in_window = 0
        self._windows_observed = 0
        self._aged_at_op = -1
        self._total_ops = 0


@dataclasses.dataclass
class IndicatorWalk:
    """One stream's control-loop decisions (see :func:`walk_stream`)."""

    #: Window start indices (the ``np.add.reduceat`` offsets).
    starts: np.ndarray
    #: Per operation: judged by the stricter Skip-(n+1) block.
    strict_ops: np.ndarray
    #: Razor errors per window under the block that judged it.
    window_errors: List[int]
    #: Indicator output after each window.
    trace: List[bool]


def walk_stream(
    indicator: AgingIndicator,
    block_errors: np.ndarray,
    adaptive: bool,
) -> IndicatorWalk:
    """Drive a fresh ``indicator`` over a whole stream.

    ``block_errors`` is ``(2, n)``: the Razor errors of each operation
    when judged by the relaxed (row 0) and by the strict block (row 1).
    Each window is judged by the block the indicator selects at its
    start (:meth:`AgingIndicator.selects_strict`).  One
    ``np.add.reduceat`` counts every window under both blocks; the walk
    itself touches one integer per window.
    """
    window = indicator.config.indicator_window
    n = block_errors.shape[1]
    starts = np.arange(0, n, window)
    relaxed, strict = np.add.reduceat(
        block_errors, starts, axis=1, dtype=np.intp
    ).tolist()
    sizes = [window] * len(starts)
    sizes[-1] = n - window * (len(starts) - 1)
    chosen: List[bool] = []
    window_errors: List[int] = []
    trace: List[bool] = []
    for size, relaxed_count, strict_count in zip(sizes, relaxed, strict):
        use_strict = indicator.selects_strict(adaptive)
        count = strict_count if use_strict else relaxed_count
        indicator.record_window(size, count)
        chosen.append(use_strict)
        window_errors.append(count)
        trace.append(indicator.aged)
    return IndicatorWalk(
        starts=starts,
        strict_ops=np.repeat(np.array(chosen), window)[:n],
        window_errors=window_errors,
        trace=trace,
    )
