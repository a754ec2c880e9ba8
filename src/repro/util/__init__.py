"""Cross-cutting infrastructure helpers shared by every subsystem.

* :mod:`repro.util.retry` -- a deterministic bounded-exponential
  backoff schedule and a ``retry_call`` driver with a typed
  :class:`~repro.errors.RetryExhaustedError`;
* :mod:`repro.util.atomic` -- :func:`~repro.util.atomic.write_atomic`,
  the unique-temp-file rename every store writes through;
* :mod:`repro.util.argtypes` -- the typed ``argparse`` converters the
  package CLIs share.
"""

from .atomic import write_atomic
from .retry import Backoff, retry_call

__all__ = ["Backoff", "retry_call", "write_atomic"]
