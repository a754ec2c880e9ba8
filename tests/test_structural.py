"""Structural (gate-level) architecture validation."""

import dataclasses

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core import AgingAwareMultiplier
from repro.core.structural import (
    StructuralArchitecture,
    validate_against_behavioral,
)
from repro.errors import SimulationError
from repro.workloads import uniform_operands


@pytest.fixture(scope="module")
def arch():
    return AgingAwareMultiplier.build(
        8, "column", skip=3, cycle_ns=0.5, characterize_patterns=300
    )


@pytest.fixture(scope="module")
def structural(arch):
    return StructuralArchitecture(arch)


class TestStructuralDecide:
    def test_matches_zero_count_rule(self, structural, arch):
        rng = np.random.default_rng(81)
        operands = rng.integers(0, 256, 500, dtype=np.uint64)
        zeros = np.array([8 - bin(int(v)).count("1") for v in operands])
        relaxed = structural.decide(operands, aging=False)
        strict = structural.decide(operands, aging=True)
        assert np.array_equal(relaxed, zeros >= arch.skip)
        assert np.array_equal(strict, zeros >= arch.skip + 1)

    def test_strict_subset(self, structural):
        rng = np.random.default_rng(83)
        operands = rng.integers(0, 256, 300, dtype=np.uint64)
        assert np.all(
            structural.decide(operands, True)
            <= structural.decide(operands, False)
        )


class TestStructuralRun:
    def test_gating_sequence_consistent(self, structural):
        md, mr = uniform_operands(8, 400, seed=85)
        result = structural.run(md, mr)
        stalls = sum(1 for enable in result.gating_enable if not enable)
        assert stalls == int((~result.one_cycle).sum())
        # Two stalls never run back to back (the paper: only one cycle
        # of the input flip-flop is disabled).
        for first, second in zip(result.gating_enable,
                                 result.gating_enable[1:]):
            assert first or second

    def test_per_bit_errors_aggregate(self, structural):
        md, mr = uniform_operands(8, 400, seed=87)
        result = structural.run(md, mr)
        flagged = result.error_bits > 0
        # An operation errors iff it was judged one-cycle and some bit
        # flagged (or it blew the two-cycle budget, rare here).
        assert np.all(result.errors <= (flagged | ~result.one_cycle))

    def test_bad_operands_rejected(self, structural):
        with pytest.raises(SimulationError):
            structural.run(
                np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.uint64)
            )


class TestBehavioralEquivalence:
    def test_fresh_silicon(self, arch):
        md, mr = uniform_operands(8, 600, seed=89)
        validation = validate_against_behavioral(arch, md, mr)
        assert validation.ok, validation.mismatched_ops[:10]

    def test_aged_silicon_with_adaptation(self, arch):
        """The strongest check: the indicator flips mid-stream and both
        models must switch judging blocks at the same window."""
        tight = arch.with_cycle(0.35)
        md, mr = uniform_operands(8, 800, seed=91)
        validation = validate_against_behavioral(
            tight, md, mr, years=7.0
        )
        assert validation.ok, validation.mismatched_ops[:10]

    def test_traditional_variant(self, arch):
        traditional = dataclasses.replace(arch, adaptive=False, name="")
        md, mr = uniform_operands(8, 500, seed=93)
        validation = validate_against_behavioral(traditional, md, mr)
        assert validation.ok

    def test_capped_fallback(self, arch):
        """Past 2T the reference charges the degrade policy's capped
        slow retry, not an uncapped ``penalty + ceil(d / T)``."""
        capped = dataclasses.replace(
            arch,
            cycle_ns=0.3 * arch.critical_path_ns(),
            config=SimulationConfig(max_fallback_cycles=2),
            name="",
        )
        md, mr = uniform_operands(8, 600, seed=99)
        report = capped.run_patterns(md, mr).report
        assert report.recovery_exhausted_ops > 0
        validation = validate_against_behavioral(capped, md, mr)
        assert validation.ok, validation.mismatched_ops[:10]

    def test_row_kind(self):
        arch = AgingAwareMultiplier.build(
            8, "row", skip=3, cycle_ns=0.45, characterize_patterns=300
        )
        md, mr = uniform_operands(8, 500, seed=95)
        validation = validate_against_behavioral(arch, md, mr)
        assert validation.ok

    def test_sixteen_bit_spot_check(self):
        arch = AgingAwareMultiplier.build(
            16, "column", skip=7, cycle_ns=0.9, characterize_patterns=400
        )
        md, mr = uniform_operands(16, 400, seed=97)
        validation = validate_against_behavioral(arch, md, mr, years=7.0)
        assert validation.ok
