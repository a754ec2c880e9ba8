"""Bounded exponential backoff and a typed retry driver.

``ArtifactStore.clear()`` (:mod:`repro.experiments.store`) races
concurrent writers and needs a loop: try, sleep a growing-but-capped
delay, try again, give up after a budget with a *typed* error.  This
module is that loop.

The schedule is deterministic under a seeded RNG: jitter draws come
from a private :class:`random.Random`, so tests can pin ``seed`` and
assert the exact delay sequence -- no global ``random`` state is
touched and no flaky sleeps leak into CI.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Callable, Iterator, Optional, Tuple, Type

from ..errors import ConfigError, RetryExhaustedError


@dataclasses.dataclass(frozen=True)
class Backoff:
    """A bounded exponential backoff schedule.

    Delay ``i`` (0-based) is ``min(initial_s * factor**i, max_delay_s)``
    plus a uniform jitter in ``[0, jitter * delay]``.  The schedule
    stops after :attr:`max_attempts` delays or once the cumulative
    *planned* sleep would exceed :attr:`max_elapsed_s`, whichever comes
    first.

    Attributes:
        initial_s: First delay in seconds.
        factor: Multiplier between consecutive delays (>= 1).
        max_delay_s: Cap on any single delay.
        max_elapsed_s: Budget on the summed delays (None: unbounded).
        max_attempts: Number of delays the schedule yields (None:
            bounded only by ``max_elapsed_s``).
        jitter: Fractional jitter added to each delay (0 disables).
        seed: Jitter RNG seed; a fixed seed makes the schedule fully
            deterministic (the property the tests pin down).
    """

    initial_s: float = 0.005
    factor: float = 2.0
    max_delay_s: float = 0.25
    max_elapsed_s: Optional[float] = 5.0
    max_attempts: Optional[int] = None
    jitter: float = 0.25
    seed: Optional[int] = None

    def __post_init__(self):
        if self.initial_s <= 0:
            raise ConfigError("backoff initial_s must be positive")
        if self.factor < 1.0:
            raise ConfigError("backoff factor must be >= 1")
        if self.max_delay_s < self.initial_s:
            raise ConfigError("backoff max_delay_s < initial_s")
        if self.jitter < 0:
            raise ConfigError("backoff jitter must be >= 0")
        if self.max_attempts is None and self.max_elapsed_s is None:
            raise ConfigError(
                "backoff needs max_attempts or max_elapsed_s (or both)"
            )

    def delays(self) -> Iterator[float]:
        """Yield the delay sequence (seconds), jitter applied."""
        rng = random.Random(self.seed)
        delay = self.initial_s
        planned = 0.0
        attempt = 0
        while True:
            if (
                self.max_attempts is not None
                and attempt >= self.max_attempts
            ):
                return
            step = min(delay, self.max_delay_s)
            if self.jitter:
                step += rng.uniform(0.0, self.jitter * step)
            planned += step
            if (
                self.max_elapsed_s is not None
                and planned > self.max_elapsed_s
            ):
                return
            yield step
            delay = min(delay * self.factor, self.max_delay_s)
            attempt += 1


def retry_call(
    func: Callable,
    retry_on: "Tuple[Type[BaseException], ...]" = (OSError,),
    backoff: Optional[Backoff] = None,
    description: str = "operation",
    sleep: Callable[[float], None] = time.sleep,
):
    """Call ``func()`` until it succeeds or the backoff is exhausted.

    Args:
        func: Zero-argument callable; its return value is passed
            through on success.
        retry_on: Exception types that trigger a retry; anything else
            propagates immediately.
        backoff: Schedule (default: a fresh :class:`Backoff`).
        description: Human label used in the exhaustion message.
        sleep: Injection point for tests (defaults to ``time.sleep``).

    Raises:
        RetryExhaustedError: Every attempt failed; the last underlying
            exception is chained as ``__cause__``.
    """
    schedule = backoff or Backoff()
    start = time.monotonic()
    attempts = 0
    last: Optional[BaseException] = None
    for delay in schedule.delays():
        attempts += 1
        try:
            return func()
        except retry_on as exc:
            last = exc
            sleep(delay)
    # One final attempt after the last sleep (or the only attempt when
    # the schedule is empty).
    attempts += 1
    try:
        return func()
    except retry_on as exc:
        last = exc
    elapsed = time.monotonic() - start
    raise RetryExhaustedError(
        "%s failed after %d attempts (%.3f s): %s"
        % (description, attempts, elapsed, last),
        attempts=attempts,
        elapsed_s=elapsed,
    ) from last
