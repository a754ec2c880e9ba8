"""Vectorized stream engine: semantics, chunking, stats, modes."""

import numpy as np
import pytest

from repro.arith import column_bypass_multiplier, golden_products
from repro.errors import SimulationError
from repro.nets.netlist import Netlist
from repro.timing import CompiledCircuit
from repro.timing.logic import unpack_bits
from repro.workloads import uniform_operands


def inverter_chain(length=3):
    nl = Netlist("chain")
    a, = nl.add_input_port("a", 1)
    x = a
    for _ in range(length):
        x = nl.inv(x)
    nl.add_output_port("o", [x])
    return nl


class TestBasics:
    def test_first_pattern_is_quiet_by_default(self):
        circuit = CompiledCircuit(inverter_chain())
        result = circuit.run({"a": [1, 1, 0]})
        assert result.delays[0] == 0.0
        assert result.delays[1] == 0.0  # unchanged input
        assert result.delays[2] > 0.0

    def test_initial_overrides_presettle(self):
        circuit = CompiledCircuit(inverter_chain())
        result = circuit.run({"a": [1, 1]}, initial={"a": 0})
        assert result.delays[0] > 0.0
        assert result.delays[1] == 0.0

    def test_chain_delay_is_sum_of_cell_delays(self):
        nl = inverter_chain(4)
        circuit = CompiledCircuit(nl)
        result = circuit.run({"a": [0, 1]})
        inv_delay = (
            nl.library.get("INV").delay_units
            * circuit.technology.time_unit_ns
        )
        assert result.delays[1] == pytest.approx(4 * inv_delay)

    def test_outputs_and_values(self):
        circuit = CompiledCircuit(inverter_chain(3))
        result = circuit.run({"a": [0, 1]})
        assert result.outputs["o"].tolist() == [1, 0]

    def test_missing_port_rejected(self):
        circuit = CompiledCircuit(inverter_chain())
        with pytest.raises(SimulationError):
            circuit.run({})

    def test_extra_port_rejected(self):
        circuit = CompiledCircuit(inverter_chain())
        with pytest.raises(SimulationError):
            circuit.run({"a": [0], "b": [0]})

    def test_unequal_lengths_rejected(self):
        nl = Netlist("two")
        a, = nl.add_input_port("a", 1)
        b, = nl.add_input_port("b", 1)
        nl.add_output_port("o", [nl.and2(a, b)])
        circuit = CompiledCircuit(nl)
        with pytest.raises(SimulationError):
            circuit.run({"a": [0, 1], "b": [0]})

    def test_empty_stream_rejected(self):
        circuit = CompiledCircuit(inverter_chain())
        with pytest.raises(SimulationError):
            circuit.run({"a": []})

    @pytest.mark.parametrize(
        "stimulus",
        [{"md": 3, "mr": 4}, {"md": [[1, 2]], "mr": [[1, 2]]}],
        ids=["scalar", "2-D"],
    )
    def test_non_1d_stimulus_rejected(self, stimulus):
        """A scalar or 2-D port is refused up front with a typed error,
        not an ``IndexError`` or broadcast failure deep in the engine."""
        circuit = CompiledCircuit(column_bypass_multiplier(4))
        for call in (circuit.run, circuit.signal_probability,
                     circuit.toggle_counts):
            with pytest.raises(SimulationError, match="1-D"):
                call(stimulus)

    def test_bad_mode_rejected(self):
        with pytest.raises(SimulationError):
            CompiledCircuit(inverter_chain(), mode="optimistic")

    def test_delay_scale_shape_checked(self):
        nl = inverter_chain(2)
        with pytest.raises(SimulationError):
            CompiledCircuit(nl, delay_scale=np.ones(5))

    def test_delay_scale_positive_checked(self):
        nl = inverter_chain(2)
        with pytest.raises(SimulationError):
            CompiledCircuit(nl, delay_scale=np.zeros(2))

    def test_delay_scale_scales_delays(self):
        nl = inverter_chain(2)
        base = CompiledCircuit(nl).run({"a": [0, 1]}).delays[1]
        scaled = (
            CompiledCircuit(nl, delay_scale=np.full(2, 1.5))
            .run({"a": [0, 1]})
            .delays[1]
        )
        assert scaled == pytest.approx(1.5 * base)

    def test_with_delay_scale_preserves_mode(self):
        circuit = CompiledCircuit(inverter_chain(), mode="floating")
        assert circuit.with_delay_scale(np.ones(3)).mode == "floating"


class TestChunking:
    @pytest.fixture(scope="class")
    def cb8(self):
        return column_bypass_multiplier(8)

    def test_chunked_equals_unchunked(self, cb8):
        circuit = CompiledCircuit(cb8)
        md, mr = uniform_operands(8, 300, seed=9)
        whole = circuit.run({"md": md, "mr": mr})
        for chunk_size in (1, 7, 100, 299):
            parts = circuit.run(
                {"md": md, "mr": mr}, chunk_size=chunk_size
            )
            assert np.array_equal(parts.outputs["p"], whole.outputs["p"])
            assert np.allclose(parts.delays, whole.delays)
            assert np.allclose(parts.switched_caps, whole.switched_caps)

    def test_chunked_net_stats_match(self, cb8):
        # Net activity comes from the unchunked values-only pass; the
        # output-bit streams of a chunked run must carry exactly the
        # same activity on the product nets.
        circuit = CompiledCircuit(cb8)
        md, mr = uniform_operands(8, 200, seed=10)
        stim = {"md": md, "mr": mr}
        toggles = circuit.toggle_counts(stim)
        probs = circuit.signal_probability(stim)
        parts = circuit.run(stim, chunk_size=37)
        nets = list(cb8.output_ports["p"].nets)
        bits = unpack_bits(parts.outputs["p"], len(nets))
        # Prepend the settling pattern (pattern 0 itself).
        bits = np.concatenate([bits[:, :1], bits], axis=1)
        assert np.array_equal(
            toggles[nets], (bits[:, 1:] != bits[:, :-1]).sum(axis=1)
        )
        assert np.array_equal(
            probs[nets], bits.sum(axis=1) / bits.shape[1]
        )

    def test_bad_chunk_size_rejected(self, cb8):
        circuit = CompiledCircuit(cb8)
        md, mr = uniform_operands(8, 10, seed=1)
        with pytest.raises(SimulationError):
            circuit.run({"md": md, "mr": mr}, chunk_size=0)

    def test_bad_chunk_size_string_rejected(self, cb8):
        circuit = CompiledCircuit(cb8)
        md, mr = uniform_operands(8, 10, seed=1)
        with pytest.raises(SimulationError):
            circuit.run({"md": md, "mr": mr}, chunk_size="huge")

    def test_auto_chunk_equals_unchunked(self, cb8):
        circuit = CompiledCircuit(cb8)
        md, mr = uniform_operands(8, 300, seed=9)
        whole = circuit.run({"md": md, "mr": mr})
        auto = circuit.run({"md": md, "mr": mr}, chunk_size="auto")
        assert np.array_equal(auto.outputs["p"], whole.outputs["p"])
        assert np.array_equal(auto.delays, whole.delays)
        assert np.array_equal(auto.switched_caps, whole.switched_caps)

    def test_auto_chunk_size_bounds(self):
        from repro.timing.engine import auto_chunk_size

        size = auto_chunk_size(num_nets=500, num_patterns=10**9)
        assert size >= 64
        assert size % 8 == 0
        # Small nets / small streams never force chunking overhead.
        assert auto_chunk_size(10, 100) >= 100


class TestInitialValidation:
    def test_unknown_initial_port_rejected(self):
        circuit = CompiledCircuit(inverter_chain())
        with pytest.raises(SimulationError) as err:
            circuit.run({"a": [0, 1]}, initial={"a": 0, "bogus": 1})
        assert "bogus" in str(err.value)

    def test_valid_initial_still_accepted(self):
        circuit = CompiledCircuit(inverter_chain())
        result = circuit.run({"a": [1, 1]}, initial={"a": 0})
        assert result.delays[0] > 0.0


class TestModes:
    def test_inertial_never_exceeds_floating(self):
        nl = column_bypass_multiplier(6)
        md, mr = uniform_operands(6, 400, seed=12)
        inertial = CompiledCircuit(nl, mode="inertial").run(
            {"md": md, "mr": mr}
        )
        floating = CompiledCircuit(nl, mode="floating").run(
            {"md": md, "mr": mr}
        )
        assert np.all(inertial.delays <= floating.delays + 1e-12)
        assert np.array_equal(inertial.outputs["p"], floating.outputs["p"])

    def test_values_identical_across_modes(self):
        nl = column_bypass_multiplier(5)
        md, mr = uniform_operands(5, 200, seed=13)
        for mode in ("inertial", "floating"):
            result = CompiledCircuit(nl, mode=mode).run(
                {"md": md, "mr": mr}
            )
            assert np.array_equal(
                result.outputs["p"], golden_products(md, mr, 5)
            )


class TestStatsCollection:
    def test_signal_probs_in_unit_interval(self, cb16_circuit, stream16):
        md, mr = stream16
        probs = cb16_circuit.signal_probability(
            {"md": md[:400], "mr": mr[:400]}
        )
        assert np.all(probs >= 0) and np.all(probs <= 1)
        # Constant rails.
        assert probs[0] == 0.0 and probs[1] == 1.0

    def test_bit_arrivals_shape(self, cb16_circuit, stream16):
        md, mr = stream16
        result = cb16_circuit.run(
            {"md": md[:50], "mr": mr[:50]}, collect_bit_arrivals=True
        )
        arrivals = result.bit_arrivals["p"]
        assert arrivals.shape == (32, 50)
        assert np.allclose(arrivals.max(axis=0), result.delays)

    def test_switched_caps_positive_on_activity(self, cb16_circuit, stream16):
        md, mr = stream16
        result = cb16_circuit.run({"md": md[:100], "mr": mr[:100]})
        assert result.switched_caps[1:].min() > 0

    def test_result_summaries(self, cb16_circuit, stream16):
        md, mr = stream16
        result = cb16_circuit.run({"md": md[:100], "mr": mr[:100]})
        assert result.max_delay >= result.mean_delay >= 0
        assert result.mean_switched_caps() > 0
        assert result.num_patterns == 100
