"""Cross-cutting infrastructure helpers shared by every subsystem.

The packages above this one (stores, scheduler, service) all need the
same two primitives when they go concurrent:

* :mod:`repro.util.retry` -- a deterministic bounded-exponential
  backoff schedule and a ``retry_call`` driver with a typed
  :class:`~repro.errors.RetryExhaustedError`;
* :mod:`repro.util.locking` -- an advisory per-path
  :class:`~repro.util.locking.FileLock` (``fcntl`` across processes,
  a registry of ``threading.Lock`` s within one) acquired with a
  timeout through the same backoff schedule.

:mod:`repro.util.atomic` holds :func:`~repro.util.atomic.write_atomic`,
the unique-temp-file rename every store writes through, and
:mod:`repro.util.argtypes` the typed ``argparse`` converters the
package CLIs share.
"""

from .atomic import write_atomic
from .locking import FileLock
from .retry import Backoff, retry_call

__all__ = ["Backoff", "FileLock", "retry_call", "write_atomic"]
