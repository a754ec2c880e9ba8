"""Power / EDP model."""

import pytest

from repro.config import DEFAULT_TECHNOLOGY
from repro.errors import SimulationError
from repro.timing import CompiledCircuit, power_report
from repro.workloads import uniform_operands


@pytest.fixture(scope="module")
def cb8_run():
    from repro.arith import column_bypass_multiplier

    netlist = column_bypass_multiplier(8)
    circuit = CompiledCircuit(netlist)
    md, mr = uniform_operands(8, 500, seed=17)
    return netlist, circuit.run({"md": md, "mr": mr}).switched_caps


class TestPowerReport:
    def test_components_positive(self, cb8_run):
        netlist, caps = cb8_run
        report = power_report(netlist, caps, avg_latency_ns=2.0)
        assert report.dynamic_watts > 0
        assert report.leakage_watts > 0
        assert report.sequential_watts == 0
        assert report.total_watts == pytest.approx(
            report.dynamic_watts + report.leakage_watts
        )

    def test_sequential_overhead(self, cb8_run):
        netlist, caps = cb8_run
        plain = power_report(netlist, caps, 2.0)
        with_ffs = power_report(
            netlist, caps, 2.0, input_ff_bits=16, output_ff_bits=16
        )
        razored = power_report(
            netlist, caps, 2.0, input_ff_bits=16, razor_bits=16
        )
        assert with_ffs.total_watts > plain.total_watts
        # Razor flip-flops are heavier than plain ones.
        assert razored.sequential_watts > with_ffs.sequential_watts / 2

    def test_leakage_decreases_with_aging(self, cb8_run):
        netlist, caps = cb8_run
        fresh = power_report(netlist, caps, 2.0, mean_delta_vth=0.0)
        aged = power_report(netlist, caps, 2.0, mean_delta_vth=0.05)
        assert aged.leakage_watts < fresh.leakage_watts
        assert aged.dynamic_watts == pytest.approx(fresh.dynamic_watts)

    def test_cycles_per_op_scales_clock_power(self, cb8_run):
        netlist, caps = cb8_run
        one = power_report(netlist, caps, 2.0, input_ff_bits=16,
                           cycles_per_op=1.0)
        two = power_report(netlist, caps, 2.0, input_ff_bits=16,
                           cycles_per_op=2.0)
        assert two.sequential_watts == pytest.approx(
            2 * one.sequential_watts
        )

    def test_edp_definition(self, cb8_run):
        netlist, caps = cb8_run
        report = power_report(netlist, caps, 2.0)
        assert report.edp_joule_ns == pytest.approx(
            report.energy_per_op_joules * 2.0
        )

    def test_longer_latency_lowers_power_not_energy(self, cb8_run):
        netlist, caps = cb8_run
        fast = power_report(netlist, caps, 1.0)
        slow = power_report(netlist, caps, 4.0)
        assert slow.dynamic_watts < fast.dynamic_watts
        # Dynamic energy per op is latency-independent; leakage energy
        # grows with latency, so total energy is higher when slower.
        assert slow.energy_per_op_joules > fast.energy_per_op_joules

    def test_invalid_latency_rejected(self, cb8_run):
        netlist, caps = cb8_run
        with pytest.raises(SimulationError):
            power_report(netlist, caps, 0.0)
        with pytest.raises(SimulationError):
            power_report(netlist, caps, 1.0, cycles_per_op=0.0)

    def test_technology_voltage_scaling(self, cb8_run):
        netlist, caps = cb8_run
        low = power_report(netlist, caps, 2.0)
        high = power_report(
            netlist, caps, 2.0,
            technology=DEFAULT_TECHNOLOGY.replace(vdd=1.2),
        )
        assert high.dynamic_watts > low.dynamic_watts


class TestPowerlessStreams:
    """A replayed stream carries no switched capacitance: reading power
    from it is a typed error, and the power pass supplies it."""

    def test_replayed_stream_refuses_power(self):
        from repro.arith import column_bypass_multiplier
        from repro.timing import (
            ArrivalReplay,
            build_switched_caps,
            build_value_plane,
        )

        netlist = column_bypass_multiplier(8)
        circuit = CompiledCircuit(netlist)
        md, mr = uniform_operands(8, 300, seed=5)
        stimulus = {"md": md, "mr": mr}
        replayed = ArrivalReplay(
            circuit, build_value_plane(circuit, stimulus)
        ).stream()
        assert replayed.switched_caps is None
        with pytest.raises(SimulationError, match="no switched capacitance"):
            replayed.mean_switched_caps()
        with pytest.raises(SimulationError, match="no switched capacitance"):
            power_report(netlist, replayed.switched_caps, 2.0)
        assert power_report(
            netlist, build_switched_caps(circuit, stimulus), 2.0
        ) == power_report(netlist, circuit.run(stimulus).switched_caps, 2.0)
