"""Aging-aware variable-latency adder (the [20]-[21] lineage)."""

import dataclasses

import numpy as np
import pytest

from repro.arith.adders import adaptive_hold_rca
from repro.config import SimulationConfig
from repro.core.adder_architecture import AgingAwareAdder
from repro.errors import (
    ConfigError,
    NetlistError,
    RecoveryExhaustedError,
    SimulationError,
)
from repro.experiments import ext_vladder
from repro.timing import CompiledCircuit
from repro.workloads import uniform_operands


@pytest.fixture(scope="module")
def adder():
    return AgingAwareAdder.build(16, characterize_patterns=400)


class TestAdaptiveHoldRca:
    def test_ports(self):
        nl = adaptive_hold_rca(16)
        assert set(nl.output_ports) == {"s", "hold", "hold_strict"}

    def test_still_adds_exactly(self):
        nl = adaptive_hold_rca(8, position=4)
        circuit = CompiledCircuit(nl)
        a, b = uniform_operands(8, 500, seed=43)
        result = circuit.run({"a": a, "b": b})
        assert np.array_equal(result.outputs["s"], a + b)

    def test_hold_functions(self):
        nl = adaptive_hold_rca(8, position=4)
        circuit = CompiledCircuit(nl)
        a, b = uniform_operands(8, 2000, seed=47)
        result = circuit.run({"a": a, "b": b})
        p = (a ^ b).astype(np.uint64)
        bit = lambda v, k: ((v >> np.uint64(k)) & np.uint64(1)).astype(bool)
        relaxed = bit(p, 4) & bit(p, 5)
        strict = (bit(p, 3) & bit(p, 4)) | relaxed
        assert np.array_equal(result.outputs["hold"].astype(bool), relaxed)
        assert np.array_equal(
            result.outputs["hold_strict"].astype(bool), strict
        )

    def test_strict_fires_at_least_as_often(self):
        nl = adaptive_hold_rca(16)
        circuit = CompiledCircuit(nl)
        a, b = uniform_operands(16, 2000, seed=53)
        result = circuit.run({"a": a, "b": b})
        assert np.all(
            result.outputs["hold"] <= result.outputs["hold_strict"]
        )

    def test_hold_probability_quarter(self):
        nl = adaptive_hold_rca(16)
        circuit = CompiledCircuit(nl)
        a, b = uniform_operands(16, 8000, seed=59)
        result = circuit.run({"a": a, "b": b})
        assert result.outputs["hold"].mean() == pytest.approx(0.25, abs=0.02)

    def test_bad_position_rejected(self):
        with pytest.raises(NetlistError):
            adaptive_hold_rca(8, position=0)
        with pytest.raises(NetlistError):
            adaptive_hold_rca(8, position=7)


class TestAgingAwareAdder:
    def test_sums_exact(self, adder):
        result = adder.run_random(1000, seed=61)
        a, b = None, None  # results carry the sums directly
        # Re-run with check_golden for the formal assertion.
        rng = np.random.default_rng(61)
        a = rng.integers(0, 1 << 16, 1000, dtype=np.uint64)
        b = rng.integers(0, 1 << 16, 1000, dtype=np.uint64)
        checked = adder.run_patterns(a, b, check_golden=True)
        assert checked.golden_ok is True

    def test_accounting_identity(self, adder):
        report = adder.run_random(1200, seed=67).report
        expected = (
            report.one_cycle_ops
            + 2 * report.two_cycle_ops
            + adder.config.razor_penalty_cycles * report.error_count
        )
        assert report.total_cycles == expected

    def test_one_cycle_ratio_three_quarters(self, adder):
        report = adder.run_random(3000, seed=71).report
        assert report.one_cycle_ratio == pytest.approx(0.75, abs=0.03)

    def test_fig4_average_latency_math(self, adder):
        """With no violations: avg = T * (0.75*1 + 0.25*2) = 1.25 T --
        the Fig. 4 arithmetic (6.25 vs 10 in cycle units)."""
        relaxed = adder.with_cycle(adder.critical_path_ns())
        report = relaxed.run_random(3000, seed=73).report
        assert report.error_count == 0
        assert report.average_cycles_per_op == pytest.approx(1.25, abs=0.03)

    def test_aging_flat_latency(self, adder):
        fresh = adder.run_random(2000, seed=79, years=0.0).report
        aged = adder.run_random(2000, seed=79, years=7.0).report
        growth = aged.average_latency_ns / fresh.average_latency_ns - 1
        assert growth < 0.05
        assert adder.critical_path_ns(7.0) > adder.critical_path_ns(0.0)

    def test_adaptive_not_worse_when_tight(self, adder):
        tight = adder.with_cycle(adder.critical_path_ns() / 3.0)
        traditional = dataclasses.replace(tight, adaptive=False, name="")
        adaptive_report = tight.run_random(3000, seed=83, years=7.0).report
        traditional_report = traditional.run_random(
            3000, seed=83, years=7.0
        ).report
        assert (
            adaptive_report.error_count <= traditional_report.error_count
        )

    def test_replayed_streams_match_own_runs(self, adder):
        """One batched replay over every year gives each run the same
        report as simulating its own stream."""
        a, b = uniform_operands(16, 1500, seed=89)
        years = [0.0, 2.0, 7.0]
        streams = adder.factory.stream_results(
            years, {"a": a, "b": b}, collect_bit_arrivals=True
        )
        for year, stream in zip(years, streams):
            for design in (adder, adder.with_cycle(adder.cycle_ns / 2)):
                own = design.run_patterns(a, b, years=year).report
                shared = design.run_patterns(
                    a, b, years=year, stream=stream
                ).report
                assert shared == own

    def test_validation(self, adder):
        with pytest.raises(ConfigError):
            dataclasses.replace(adder, cycle_ns=0.0)
        with pytest.raises(SimulationError):
            adder.run_patterns(
                np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.uint64)
            )


class TestAdderRecovery:
    """The adder runs the multiplier's control loop: a shadow edge, the
    configured recovery policy and capped retries.  An 8-bit adder at
    0.3 of its critical path overruns 2T on about 2% of 1,050 ops."""

    @pytest.fixture(scope="class")
    def tight(self):
        adder = AgingAwareAdder.build(8, characterize_patterns=300)
        return adder.with_cycle(0.3 * adder.critical_path_ns())

    @pytest.fixture(scope="class")
    def operands(self):
        return uniform_operands(8, 1050, seed=9)

    def _run(self, tight, operands, **config):
        adder = dataclasses.replace(
            tight, config=SimulationConfig(**config), name=""
        )
        return adder.run_patterns(*operands)

    def test_undetectable_past_shadow_edge(self, tight, operands):
        result = self._run(tight, operands, shadow_skew_fraction=0.5)
        past_shadow = result.one_cycle & (result.delays > 1.5 * tight.cycle_ns)
        assert past_shadow.any()
        assert result.report.undetectable_count == np.count_nonzero(
            past_shadow
        )

    def test_strict_raises(self, tight, operands):
        past_shadow = self._run(
            tight, operands, shadow_skew_fraction=0.5
        ).report.undetectable_count
        assert past_shadow > 0
        with pytest.raises(RecoveryExhaustedError):
            self._run(
                tight,
                operands,
                shadow_skew_fraction=0.5,
                recovery_policy="strict",
            )

    def test_detect_only_charges_judged_cycles(self, tight, operands):
        report = self._run(
            tight, operands, recovery_policy="detect-only"
        ).report
        assert report.error_count > 0
        assert report.total_cycles == (
            report.one_cycle_ops + 2 * report.two_cycle_ops
        )

    def test_degrade_recovers_deep_retries(self, tight, operands):
        report = self._run(tight, operands).report
        assert report.policy == "degrade"
        assert report.deep_retry_ops > 0
        assert report.recovered_ops == report.deep_retry_ops

    def test_precomputed_stream_length_checked(self, tight, operands):
        """A stream of another length is refused, as the multiplier
        refuses it, instead of reporting its own pattern count."""
        a, b = operands
        stream = tight.factory.stream_result(
            0.0, {"a": a, "b": b}, collect_bit_arrivals=True
        )
        with pytest.raises(
            SimulationError, match="precomputed stream has 1050 patterns,"
            " operands have 100"
        ):
            tight.run_patterns(a[:100], b[:100], stream=stream)


class TestExtVlAdder:
    def test_experiment_claims(self, ctx):
        result = ext_vladder.run(ctx, num_patterns=2000)
        assert result.growth("fixed") == pytest.approx(0.13, abs=0.02)
        assert result.growth("a-vl") < 0.03
        assert result.adaptive_never_worse()
        assert "a-vl" in result.render()
