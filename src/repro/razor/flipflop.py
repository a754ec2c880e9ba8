"""Behavioral Razor flip-flop and the output-bank error detector.

Model (paper Fig. 11): the main flip-flop samples the combinational
output at the cycle edge ``T``; the shadow latch samples on a delayed
clock at ``T + skew``.  If the data input settles between the two edges,
main and shadow disagree and the error output goes high.

The simulation works with per-bit *arrival times* (the floating-mode
upper bound on the last transition): a bit errors when it arrives after
the main edge.  An arrival past the *shadow* edge would be undetectable
-- the architecture avoids that case by sending slow patterns through
two-cycle execution, and the bank reports such overruns separately so
tests can assert the guarantee holds.
"""

from __future__ import annotations

import dataclasses
from typing import Union

import numpy as np

from ..errors import SimulationError

Number = Union[float, np.ndarray]


def razor_errors(one_cycle, late, over) -> np.ndarray:
    """Razor errors of judged operations: a one-cycle operation that
    arrives past the main edge (``late``), or a two-cycle one past
    ``2T`` (``over``).  The architectures' recovery policies and the
    aging indicator count exactly these."""
    return (one_cycle & late) | (~one_cycle & over)


@dataclasses.dataclass(frozen=True)
class RazorSample:
    """Vectorized sampling outcome of a :class:`RazorBank` call.

    Attributes:
        main: Values latched by the main flip-flops at the cycle edge
            (stale for late arrivals).
        shadow: Values latched by the shadow latches (stale only past
            the shadow window).
        error: Main/shadow mismatch -- the Razor error signal.
        undetectable: Arrival beyond the shadow window: both latches
            hold stale data, so the violation raises *no* error.  The
            caller decides how to act (the architecture's recovery
            policies; ``strict`` raises, the others record).
    """

    main: np.ndarray
    shadow: np.ndarray
    error: np.ndarray
    undetectable: np.ndarray


@dataclasses.dataclass(frozen=True)
class RazorFlipFlop:
    """One Razor stage: main edge at ``cycle_ns``, shadow at ``+skew``.

    Args:
        cycle_ns: Clock period (main sampling edge).
        shadow_skew_ns: Delay of the shadow clock after the main edge.
    """

    cycle_ns: float
    shadow_skew_ns: float

    def __post_init__(self):
        if self.cycle_ns <= 0:
            raise SimulationError("cycle_ns must be positive")
        if self.shadow_skew_ns <= 0:
            raise SimulationError("shadow_skew_ns must be positive")

    def samples(self, arrival_ns: float, settled_value: int,
                policy: str = "strict"):
        """Return ``(main_value, shadow_value, error)`` for one bit.

        A bit arriving before the main edge latches correctly in both;
        one arriving in the detection window latches stale data in the
        main flip-flop but correct data in the shadow latch.

        An arrival beyond the shadow window is an *undetectable*
        violation: under the default ``"strict"`` policy it raises
        :class:`~repro.errors.SimulationError` (the scalar path keeps
        the hardware guarantee an assertion); any other policy name
        returns the physical outcome -- stale data in both latches with
        the error line low.  Vectorized callers should use
        :meth:`RazorBank.samples`, which never raises and reports a
        per-pattern ``undetectable`` mask instead.
        """
        if arrival_ns <= self.cycle_ns:
            return settled_value, settled_value, False
        stale = 1 - settled_value
        if arrival_ns <= self.cycle_ns + self.shadow_skew_ns:
            return stale, settled_value, True
        if policy == "strict":
            raise SimulationError(
                "arrival %.4f ns beyond the shadow window (%.4f ns): "
                "undetectable violation"
                % (arrival_ns, self.cycle_ns + self.shadow_skew_ns)
            )
        return stale, stale, False

    def error(self, arrival_ns: float) -> bool:
        """Whether this bit triggers the Razor error signal."""
        return arrival_ns > self.cycle_ns


@dataclasses.dataclass(frozen=True)
class RazorBank:
    """A bank of Razor flip-flops across all product bits.

    The bank works vectorized on per-pattern delay arrays (the max over
    bits is enough for the OR of the per-bit error flags: the slowest
    bit decides).
    """

    cycle_ns: float
    shadow_skew_ns: float

    def __post_init__(self):
        if self.cycle_ns <= 0:
            raise SimulationError("cycle_ns must be positive")
        if self.shadow_skew_ns <= 0:
            raise SimulationError("shadow_skew_ns must be positive")

    def errors(self, delays_ns: Number) -> np.ndarray:
        """Error flags: the operation missed the main edge.

        This is the *timing-violation* predicate (arrival past the main
        edge), which the architecture's judging guarantees stay inside
        the shadow window.  The physical error line of the bank --
        which goes quiet again past the shadow window -- is
        :attr:`RazorSample.error` from :meth:`samples`.
        """
        return np.asarray(delays_ns, dtype=float) > self.cycle_ns

    def samples(self, arrival_ns: Number, settled_values: Number) -> RazorSample:
        """Vectorized bank sampling: never raises.

        ``arrival_ns`` and ``settled_values`` are broadcast-compatible
        per-pattern arrays (the bank reduces over bits, so one arrival
        and one packed value word per pattern is the usual shape; bit
        values 0/1 model the slowest bit's lane).  A single overrun
        pattern no longer aborts the whole batch -- it surfaces in the
        returned :attr:`RazorSample.undetectable` mask while every other
        pattern's results stay valid.
        """
        arrivals = np.asarray(arrival_ns, dtype=float)
        values = np.asarray(settled_values)
        window = self.cycle_ns + self.shadow_skew_ns
        late = arrivals > self.cycle_ns
        undetectable = arrivals > window
        stale = values ^ 1
        main = np.where(late, stale, values)
        shadow = np.where(undetectable, stale, values)
        return RazorSample(
            main=main,
            shadow=shadow,
            error=late & ~undetectable,
            undetectable=undetectable,
        )

    def undetectable(self, delays_ns: Number) -> np.ndarray:
        """Flags for arrivals beyond the shadow window.

        The architecture must keep this all-False by routing slow
        patterns through two-cycle execution.
        """
        window = self.cycle_ns + self.shadow_skew_ns
        return np.asarray(delays_ns, dtype=float) > window

    def error_count(self, delays_ns: Number) -> int:
        """Number of operations flagged in a stream."""
        return int(self.errors(delays_ns).sum())
