"""Aging indicator and adaptive hold logic."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.ahl import AdaptiveHoldLogic, ahl_netlist
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
    def test_starts_on_relaxed_block(self):
        ahl = AdaptiveHoldLogic(16, 7)
        assert ahl.active_block.skip == 7

    def test_switches_after_error_burst(self):
        ahl = AdaptiveHoldLogic(16, 7)
        ahl.observe(100, 15)
        assert ahl.active_block.skip == 8

    def test_traditional_never_switches(self):
        ahl = AdaptiveHoldLogic(16, 7, adaptive=False)
        ahl.observe(100, 100)
        assert ahl.active_block.skip == 7

    def test_decide_uses_active_block(self):
        ahl = AdaptiveHoldLogic(16, 7)
        operand = np.array([0b111111111_0000000], dtype=np.uint64)  # 7 zeros
        assert ahl.active_block.one_cycle(operand).tolist() == [True]
        ahl.observe(100, 15)
        assert ahl.active_block.one_cycle(operand).tolist() == [False]

    def test_skip_must_leave_room(self):
        with pytest.raises(ConfigError):
            AdaptiveHoldLogic(16, 16)

    def test_reset(self):
        ahl = AdaptiveHoldLogic(16, 7)
        ahl.observe(100, 15)
        ahl.reset()
        assert ahl.active_block.skip == 7


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
