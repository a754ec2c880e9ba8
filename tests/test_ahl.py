"""Aging indicator and adaptive hold logic."""

import numpy as np
import pytest

from repro.arith.reference import count_zeros
from repro.config import SimulationConfig
from repro.core import AgingAwareMultiplier
from repro.core.ahl import ahl_netlist
from repro.core.architecture import run_control_loop
from repro.core.judging import JudgingBlock
from repro.core.aging_indicator import AgingIndicator
from repro.errors import ConfigError, SimulationError
from repro.timing import CompiledCircuit


class TestAgingIndicator:
    def test_starts_fresh(self):
        indicator = AgingIndicator()
        assert not indicator.aged
        assert indicator.aged_at_op == -1

    def test_flips_on_threshold(self):
        indicator = AgingIndicator()
        # 10 errors in the first 100-op window (the paper's 10%).
        for k in range(100):
            indicator.record(k < 10)
        assert indicator.aged
        assert indicator.aged_at_op == 100
        assert indicator.windows_observed == 1

    def test_stays_fresh_below_threshold(self):
        indicator = AgingIndicator()
        for k in range(100):
            indicator.record(k < 9)
        assert not indicator.aged

    def test_sticky_by_default(self):
        indicator = AgingIndicator()
        indicator.record_window(100, 50)
        assert indicator.aged
        indicator.record_window(100, 0)
        assert indicator.aged  # the paper's monotone indicator

    def test_non_sticky_relaxes(self):
        config = SimulationConfig(indicator_sticky=False)
        indicator = AgingIndicator(config)
        indicator.record_window(100, 50)
        assert indicator.aged
        indicator.record_window(100, 0)
        assert not indicator.aged

    def test_window_boundary_enforced(self):
        indicator = AgingIndicator()
        indicator.record_window(60, 0)
        with pytest.raises(SimulationError):
            indicator.record_window(60, 0)

    def test_partial_windows_accumulate(self):
        indicator = AgingIndicator()
        indicator.record_window(50, 5)
        indicator.record_window(50, 5)
        assert indicator.aged  # 10 errors across the combined window

    def test_invalid_window_counts(self):
        indicator = AgingIndicator()
        with pytest.raises(SimulationError):
            indicator.record_window(10, 11)

    def test_reset(self):
        indicator = AgingIndicator()
        indicator.record_window(100, 99)
        indicator.reset()
        assert not indicator.aged
        assert indicator.windows_observed == 0


class TestAdaptiveHoldLogic:
    """The AHL's block mux, driven by the one control loop
    (:func:`repro.core.architecture.run_control_loop`)."""

    @staticmethod
    def _run(adaptive, burst=15, operands=None):
        # Two 100-op windows; by default every operand has exactly 7
        # zeros: one-cycle under Skip-7, two-cycle under Skip-8.  The
        # first ``burst`` operations miss the clock.
        if operands is None:
            operands = np.full(200, 0b111111111_0000000, dtype=np.uint64)
        judged = count_zeros(operands, 16) >= np.array([[7], [8]])
        delays = np.full(200, 0.5)
        delays[:burst] = 1.5
        return run_control_loop(
            "ahl", judged, delays, 1.0, 0.0, SimulationConfig(), adaptive
        )

    def test_starts_on_relaxed_block(self):
        report, one_cycle, _ = self._run(adaptive=True, burst=0)
        assert one_cycle.all()
        assert report.indicator_trace == [False, False]

    def test_switches_after_error_burst(self):
        report, one_cycle, _ = self._run(adaptive=True)
        assert one_cycle[:100].all()  # window 0: the Skip-7 flags
        assert not one_cycle[100:].any()  # window 1: the Skip-8 flags
        assert report.window_errors == [15, 0]
        assert report.indicator_trace == [True, True]
        assert report.indicator_aged_at == 100

    def test_traditional_never_switches(self):
        report, one_cycle, _ = self._run(adaptive=False)
        assert one_cycle.all()
        # The indicator still flags; nothing reads it.
        assert report.indicator_trace == [True, True]

    def test_decide_uses_active_block(self):
        operands = np.random.default_rng(5).integers(
            0, 1 << 16, 200, dtype=np.uint64
        )
        report, one_cycle, _ = self._run(
            adaptive=True, burst=100, operands=operands
        )
        assert report.indicator_trace == [True, True]
        assert np.array_equal(
            one_cycle[:100], JudgingBlock(16, 7).one_cycle(operands[:100])
        )
        assert np.array_equal(
            one_cycle[100:], JudgingBlock(16, 8).one_cycle(operands[100:])
        )

    def test_skip_must_leave_room(self):
        with pytest.raises(ConfigError):
            AgingAwareMultiplier.build(16, skip=16)

    def test_reset(self):
        """Each run starts a fresh indicator."""
        arch = AgingAwareMultiplier.build(8, characterize_patterns=300)
        tight = arch.with_cycle(0.55 * arch.critical_path_ns())
        first = tight.run_random(1050, seed=3).report
        assert any(first.indicator_trace)
        assert tight.run_random(1050, seed=3).report == first


class TestAhlNetlist:
    def test_outputs_and_sequential_bits(self):
        nl, seq_bits = ahl_netlist(16, 7)
        assert set(nl.output_ports) == {"one_cycle", "gating_n"}
        # gating DFF + indicator flag + two counters sized by the window.
        assert seq_bits == 1 + 1 + 7 + 7

    def test_mux_selects_between_blocks(self):
        nl, _ = ahl_netlist(8, 4)
        circuit = CompiledCircuit(nl)
        values = np.arange(256, dtype=np.uint64)
        zeros = np.array([8 - bin(int(v)).count("1") for v in values])
        for aging, skip in ((0, 4), (1, 5)):
            result = circuit.run(
                {
                    "x": values,
                    "aging": np.full(256, aging, dtype=np.uint64),
                    "q": np.zeros(256, dtype=np.uint64),
                }
            )
            assert np.array_equal(
                result.outputs["one_cycle"].astype(bool), zeros >= skip
            )

    def test_gating_is_or_of_decision_and_q(self):
        nl, _ = ahl_netlist(8, 4)
        circuit = CompiledCircuit(nl)
        values = np.arange(256, dtype=np.uint64)
        result = circuit.run(
            {
                "x": values,
                "aging": np.zeros(256, dtype=np.uint64),
                "q": np.ones(256, dtype=np.uint64),
            }
        )
        assert np.all(result.outputs["gating_n"] == 1)
