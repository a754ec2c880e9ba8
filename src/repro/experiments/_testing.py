"""Test-only fault injection, behind one switch.

Everything here is inert unless the ``REPRO_TEST_EXPERIMENTS``
environment variable is set (:func:`testing_enabled`):

* the injected experiment specs below join the registry (see the hook
  at the bottom of :mod:`repro.experiments.registry`);
* the reliability service passes a query's ``inject`` field on to its
  pool, and a ``query`` job honors it (:func:`apply_inject`).

Because every pool worker inherits the environment it starts in --
``local:N`` processes from the process that opens the pool, ``distrib
worker`` daemons from their shell -- one variable gates the server
side and the worker side alike: a spec that raises in-worker, a spec or query that kills its
worker process outright, and a query that sleeps past its deadline.
"""

from __future__ import annotations

import os
import time


#: The one environment switch for test-only behavior.
TESTING_ENV = "REPRO_TEST_EXPERIMENTS"


def testing_enabled() -> bool:
    """Whether this process honors test-only hooks."""
    return bool(os.environ.get(TESTING_ENV))


def apply_inject(inject) -> None:
    """Deterministic query fault injection: ``"crash"`` kills the
    worker process, ``"sleep:S"`` stalls it ``S`` seconds.  A no-op
    unless :func:`testing_enabled`."""
    if not inject or not testing_enabled():
        return
    if inject == "crash":
        os._exit(3)
    if inject.startswith("sleep:"):
        time.sleep(float(inject.split(":", 1)[1]))


class _Rendered:
    """Minimal result object satisfying the ``render()`` protocol."""

    def __init__(self, text: str):
        self._text = text

    def render(self) -> str:
        return self._text


def run_ok(context, delay_s: float = 0.0):
    """A well-behaved experiment (optionally slow, to order crashes)."""
    if delay_s:
        time.sleep(delay_s)
    return _Rendered("test experiment ok")


def run_raise(context):
    """Deterministic in-worker failure: must become an error record
    without a retry and without touching other experiments."""
    raise RuntimeError("injected failure")


def run_crash(context):
    """Kill the worker process outright (no exception, no cleanup) --
    the ProcessPoolExecutor sees a BrokenProcessPool."""
    os._exit(3)


def register_test_experiments(registry=None) -> None:
    from .registry import REGISTRY, Resources, _spec

    target = REGISTRY if registry is None else registry
    for spec in (
        _spec("_test_ok", "Injected no-op (testing)",
              run_ok, ("testing",), Resources()),
        _spec("_test_slow", "Injected slow no-op (testing)",
              run_ok, ("testing",), Resources(), delay_s=0.5),
        _spec("_test_raise", "Injected raising spec (testing)",
              run_raise, ("testing",), Resources()),
        _spec("_test_crash", "Injected crashing spec (testing)",
              run_crash, ("testing",), Resources()),
    ):
        target[spec.id] = spec
