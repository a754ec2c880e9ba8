"""Recovery policies: strict / degrade / detect-only semantics."""

import dataclasses

import numpy as np
import pytest

from repro.config import RECOVERY_POLICIES, SimulationConfig
from repro.core import (
    AgingAwareMultiplier,
    DegradeRecovery,
    DetectOnlyRecovery,
    StrictRecovery,
    resolve_policy,
)
from repro.errors import ConfigError, RecoveryExhaustedError, SimulationError


@pytest.fixture(scope="module")
def arch8():
    return AgingAwareMultiplier.build(
        8, "column", skip=3, cycle_ns=0.5, characterize_patterns=300
    )


CYCLE = 1.0
SHADOW = 2.0  # default shadow_skew_fraction=1.0 -> window = 2T
PENALTY = 3
CAP = 4


def resolve(policy, flags, delays, cap=CAP):
    return policy.resolve(
        np.asarray(flags, dtype=bool),
        np.asarray(delays, dtype=float),
        CYCLE,
        SHADOW,
        PENALTY,
        cap,
    )


class TestDegrade:
    def test_paper_accounting_preserved(self):
        # one-cycle clean = 1; one-cycle late = 1 + penalty;
        # two-cycle within budget = 2; over budget = penalty + ceil(d/T).
        res = resolve(
            DegradeRecovery(),
            [True, True, False, False],
            [0.8, 1.5, 1.9, 3.5],
        )
        assert list(res.cycles) == [1.0, 4.0, 2.0, 7.0]
        assert list(res.errors) == [False, True, False, True]
        assert not res.undetectable.any()
        assert list(res.recovered) == [False, False, False, True]
        assert not res.exhausted.any()

    def test_fallback_cap_binds(self):
        # ceil(9.5 / 1.0) = 10 > cap 4: charge penalty + cap and flag
        # exhausted instead of aborting.
        res = resolve(DegradeRecovery(), [False], [9.5])
        assert list(res.cycles) == [PENALTY + CAP]
        assert list(res.exhausted) == [True]
        assert list(res.recovered) == [False]

    def test_undetectable_mask(self):
        # One-cycle arrival past the shadow window: main and shadow both
        # latch stale data, Razor is blind.
        res = resolve(DegradeRecovery(), [True, False], [2.5, 2.5])
        assert list(res.undetectable) == [True, False]

    def test_architecture_exposes_masks(self, arch8):
        tight = arch8.with_cycle(0.12)
        result = tight.run_random(400, seed=5, policy="degrade")
        rep = result.report
        assert rep.policy == "degrade"
        assert rep.recovered_ops == int(result.recovered.sum())
        assert rep.recovery_exhausted_ops == int(result.exhausted.sum())
        assert rep.undetectable_count == int(result.undetectable.sum())
        assert len(rep.window_recoveries) == len(rep.window_errors)
        assert rep.recovered_ops > 0  # 0.12 ns clock forces deep retries


class TestStrict:
    def test_clean_window_matches_degrade(self):
        flags = [True, True, False]
        delays = [0.5, 1.5, 1.9]
        strict = resolve(StrictRecovery(), flags, delays)
        degrade = resolve(DegradeRecovery(), flags, delays)
        assert np.array_equal(strict.cycles, degrade.cycles)
        assert np.array_equal(strict.errors, degrade.errors)

    def test_raises_on_undetectable(self):
        with pytest.raises(RecoveryExhaustedError) as info:
            resolve(StrictRecovery(), [False, True], [1.0, 2.7])
        assert info.value.op_index == 1
        assert info.value.delay_ns == pytest.approx(2.7)
        assert "shadow window" in str(info.value)

    def test_run_raises_at_stream_index_in_later_window(self, arch8):
        # The first fatal operation of this stream sits in window 1:
        # the strict run must name its stream index, with the message
        # the policy has always printed.
        tight = arch8.with_cycle(0.28)
        degrade = tight.run_random(400, seed=7, policy="degrade")
        fatal = degrade.undetectable | degrade.exhausted
        index = int(np.argmax(fatal))
        assert fatal.any() and index >= arch8.config.indicator_window
        with pytest.raises(RecoveryExhaustedError) as info:
            tight.run_random(400, seed=7, policy="strict")
        assert info.value.op_index == index
        assert str(info.value) == (
            "operation %d: arrival %.4f ns overruns the shadow window under "
            "the strict recovery policy (cycle 0.2800 ns, shadow 0.5600 ns, "
            "fallback cap 64)" % (index, degrade.delays[index])
        )

    def test_raises_on_exhausted_cap(self):
        with pytest.raises(RecoveryExhaustedError) as info:
            resolve(StrictRecovery(), [False], [9.5])
        assert "fallback cap" in str(info.value)

    def test_is_simulation_error(self, arch8):
        # Legacy callers catching SimulationError keep working.
        assert issubclass(RecoveryExhaustedError, SimulationError)
        with pytest.raises(SimulationError):
            arch8.with_cycle(0.12).run_random(400, seed=5, policy="strict")

    def test_safe_clock_never_raises(self, arch8):
        relaxed = arch8.with_cycle(1.1 * arch8.critical_path_ns())
        result = relaxed.run_random(400, seed=5, policy="strict")
        assert result.report.policy == "strict"
        assert result.report.recovery_exhausted_ops == 0


class TestDetectOnly:
    def test_no_penalties_charged(self):
        res = resolve(
            DetectOnlyRecovery(),
            [True, True, False, False],
            [0.8, 1.5, 1.9, 3.5],
        )
        assert list(res.cycles) == [1.0, 4.0 - PENALTY, 2.0, 2.0]
        # Detections are still counted for coverage...
        assert list(res.errors) == [False, True, False, True]
        # ...but nothing is recovered or exhausted.
        assert not res.recovered.any()
        assert not res.exhausted.any()

    def test_coverage_counting_on_architecture(self, arch8):
        tight = arch8.with_cycle(0.12)
        detect = tight.run_random(400, seed=5, policy="detect-only")
        degrade = tight.run_random(400, seed=5, policy="degrade")
        assert detect.report.policy == "detect-only"
        assert detect.report.error_count == degrade.report.error_count
        assert (
            detect.report.undetectable_count
            == degrade.report.undetectable_count
        )
        assert detect.report.total_cycles < degrade.report.total_cycles
        assert detect.report.recovered_ops == 0


class TestResolvePolicy:
    def test_names_resolve(self):
        for name in RECOVERY_POLICIES:
            assert resolve_policy(name).name == name

    def test_none_uses_config_default(self):
        config = SimulationConfig(recovery_policy="strict")
        assert resolve_policy(None, config).name == "strict"
        assert resolve_policy(None).name == "degrade"

    def test_instances_pass_through(self):
        policy = DegradeRecovery()
        assert resolve_policy(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            resolve_policy("fail-fast")


class TestConfigValidation:
    def test_bad_policy_name(self):
        with pytest.raises(ConfigError):
            SimulationConfig(recovery_policy="yolo")

    def test_zero_fallback_cap(self):
        with pytest.raises(ConfigError):
            SimulationConfig(max_fallback_cycles=0)

    def test_negative_transient_rate(self):
        with pytest.raises(ConfigError):
            SimulationConfig(default_transient_rate=-0.1)
        with pytest.raises(ConfigError):
            SimulationConfig(default_transient_rate=1.01)

    def test_config_default_policy_drives_run(self, arch8):
        strict_arch = dataclasses.replace(
            arch8,
            config=dataclasses.replace(
                arch8.config, recovery_policy="strict"
            ),
            cycle_ns=0.12,
        )
        with pytest.raises(RecoveryExhaustedError):
            strict_arch.run_random(400, seed=5)
