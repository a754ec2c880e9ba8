"""Backoff schedules and the retry driver."""

import pytest

from repro.errors import ConfigError, RetryExhaustedError
from repro.util import Backoff, retry_call


class TestBackoff:
    def test_schedule_without_jitter(self):
        schedule = Backoff(
            initial_s=0.01, factor=2.0, max_delay_s=0.04,
            max_elapsed_s=None, max_attempts=5, jitter=0.0,
        )
        assert list(schedule.delays()) == pytest.approx(
            [0.01, 0.02, 0.04, 0.04, 0.04]
        )

    def test_max_elapsed_bounds_planned_sleep(self):
        schedule = Backoff(
            initial_s=1.0, factor=1.0, max_delay_s=1.0,
            max_elapsed_s=2.5, jitter=0.0,
        )
        # A third delay would push the planned total to 3.0 > 2.5.
        assert list(schedule.delays()) == pytest.approx([1.0, 1.0])

    def test_jitter_deterministic_under_seed(self):
        kwargs = dict(
            initial_s=0.01, max_delay_s=0.08, max_elapsed_s=None,
            max_attempts=6, jitter=0.5,
        )
        a = list(Backoff(seed=42, **kwargs).delays())
        b = list(Backoff(seed=42, **kwargs).delays())
        c = list(Backoff(seed=43, **kwargs).delays())
        assert a == b
        assert a != c
        # Jitter only ever adds, bounded by the configured fraction.
        bare = list(Backoff(**dict(kwargs, jitter=0.0)).delays())
        for jittered, base in zip(a, bare):
            assert base <= jittered <= base * 1.5 + 1e-12

    def test_validation(self):
        with pytest.raises(ConfigError):
            Backoff(initial_s=0.0)
        with pytest.raises(ConfigError):
            Backoff(factor=0.5)
        with pytest.raises(ConfigError):
            Backoff(initial_s=0.5, max_delay_s=0.1)
        with pytest.raises(ConfigError):
            Backoff(jitter=-1.0)
        with pytest.raises(ConfigError):
            Backoff(max_elapsed_s=None, max_attempts=None)


class TestRetryCall:
    def test_success_passthrough(self):
        assert retry_call(lambda: 41 + 1) == 42

    def test_retries_then_succeeds(self):
        calls = {"n": 0}
        slept = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "done"

        result = retry_call(
            flaky,
            backoff=Backoff(
                initial_s=0.01, max_delay_s=0.04, max_elapsed_s=None,
                max_attempts=5, jitter=0.0,
            ),
            sleep=slept.append,
        )
        assert result == "done"
        assert calls["n"] == 3
        assert slept == pytest.approx([0.01, 0.02])

    def test_exhaustion_raises_typed_error(self):
        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise OSError("still broken")

        with pytest.raises(RetryExhaustedError) as info:
            retry_call(
                always_fails,
                description="doomed op",
                backoff=Backoff(
                    initial_s=0.001, max_delay_s=0.001,
                    max_elapsed_s=None, max_attempts=3, jitter=0.0,
                ),
                sleep=lambda _s: None,
            )
        # 3 scheduled delays + the final attempt after the last sleep.
        assert info.value.attempts == 4
        assert calls["n"] == 4
        assert "doomed op" in str(info.value)
        assert isinstance(info.value.__cause__, OSError)

    def test_unlisted_exception_propagates_immediately(self):
        def bad():
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            retry_call(bad, retry_on=(OSError,), sleep=lambda _s: None)
