"""Advisory per-path file locking with timeout and backoff.

POSIX ``fcntl`` locks exclude *processes*, not threads -- two threads
of one process can both "hold" an ``flock``.  :class:`FileLock`
therefore layers two mechanisms behind one interface:

* an in-process registry of ``threading.Lock`` s keyed by the absolute
  lock path (threads of one process serialize here), and
* ``fcntl.flock(LOCK_EX | LOCK_NB)`` on the lock file (processes
  serialize here), polled through a bounded-exponential
  :class:`~repro.util.retry.Backoff` until the timeout.

Failure to acquire raises the typed
:class:`~repro.errors.LockTimeoutError` carrying the path, never a
bare ``OSError``.  On platforms without :mod:`fcntl` (Windows) the
lock degrades to thread-only exclusion -- every POSIX CI target gets
the full behavior.

The lock file is a zero-byte sibling (``<target>.lock`` by
convention); deleting a held lock file is harmless for the holder (the
``flock`` lives on the open descriptor).  The one user, the campaign
checkpoint store (:meth:`repro.faults.store.CheckpointStore.open`),
only ever deletes its lock file together with the directory it
guards.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional, Tuple

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

from ..errors import LockTimeoutError
from .retry import Backoff

#: Process-wide registry: abs path -> (thread lock, refcount).
_REGISTRY: Dict[str, "Tuple[threading.Lock, int]"] = {}
_REGISTRY_GUARD = threading.Lock()


def _checkout(path: str) -> threading.Lock:
    with _REGISTRY_GUARD:
        lock, count = _REGISTRY.get(path, (None, 0))
        if lock is None:
            lock = threading.Lock()
        _REGISTRY[path] = (lock, count + 1)
    return lock


def _checkin(path: str) -> None:
    with _REGISTRY_GUARD:
        lock, count = _REGISTRY[path]
        if count <= 1:
            del _REGISTRY[path]
        else:
            _REGISTRY[path] = (lock, count - 1)


class FileLock:
    """Exclusive advisory lock on a path (thread- and process-safe).

    Usage::

        with FileLock(shard_path + ".lock", timeout_s=10.0):
            ...  # critical section

    Args:
        path: Lock file (created on demand, parent too).
        timeout_s: Acquisition budget across both layers.
        backoff: Poll schedule for the cross-process ``flock`` layer
            (default: a deterministic-but-jittered :class:`Backoff`
            capped well under ``timeout_s`` granularity).

    Raises:
        LockTimeoutError: The lock stayed contended past ``timeout_s``.
    """

    def __init__(
        self,
        path: str,
        timeout_s: float = 10.0,
        backoff: Optional[Backoff] = None,
    ):
        self.path = os.path.abspath(str(path))
        self.timeout_s = float(timeout_s)
        self._backoff = backoff or Backoff(
            initial_s=0.001,
            max_delay_s=0.05,
            max_elapsed_s=None,
            max_attempts=1_000_000,
        )
        self._fd: Optional[int] = None
        self._thread_lock: Optional[threading.Lock] = None

    @property
    def locked(self) -> bool:
        return self._thread_lock is not None

    # ------------------------------------------------------------------

    def acquire(self) -> "FileLock":
        if self.locked:
            raise LockTimeoutError(
                "lock %s is not reentrant" % self.path, path=self.path
            )
        deadline = time.monotonic() + self.timeout_s
        thread_lock = _checkout(self.path)
        acquired = thread_lock.acquire(timeout=self.timeout_s)
        if not acquired:
            _checkin(self.path)
            raise LockTimeoutError(
                "thread contention on %s exceeded %.2f s"
                % (self.path, self.timeout_s),
                path=self.path,
            )
        try:
            self._flock(deadline)
        except BaseException:
            thread_lock.release()
            _checkin(self.path)
            raise
        self._thread_lock = thread_lock
        return self

    def release(self) -> None:
        if not self.locked:
            return
        if self._fd is not None:
            try:
                if fcntl is not None:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
                self._fd = None
        self._thread_lock.release()
        self._thread_lock = None
        _checkin(self.path)

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    # ------------------------------------------------------------------

    def _flock(self, deadline: float) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        attempts = 0
        start = time.monotonic()
        try:
            for delay in self._backoff.delays():
                attempts += 1
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._fd = fd
                    return
                except OSError:
                    now = time.monotonic()
                    if now + delay > deadline:
                        break
                    time.sleep(delay)
        except BaseException:
            os.close(fd)
            raise
        os.close(fd)
        raise LockTimeoutError(
            "could not flock %s within %.2f s (%d attempts)"
            % (self.path, self.timeout_s, attempts),
            path=self.path,
            attempts=attempts,
            elapsed_s=time.monotonic() - start,
        )
