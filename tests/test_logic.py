"""Cell logic semantics: scalar vs vector agreement, packing, toggles."""

import itertools

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.nets.cells import (
    OP_AND2,
    OP_AND3,
    OP_BUF,
    OP_INV,
    OP_MUX2,
    OP_NAND2,
    OP_NOR2,
    OP_OR2,
    OP_OR3,
    OP_TRIBUF,
    OP_XNOR2,
    OP_XOR2,
    STANDARD_LIBRARY,
)
from repro.timing import logic

ALL_OPCODES = {
    cell.name: (cell.opcode, cell.num_inputs) for cell in STANDARD_LIBRARY
}

REFERENCE = {
    OP_BUF: lambda a: a,
    OP_INV: lambda a: 1 - a,
    OP_AND2: lambda a, b: a & b,
    OP_OR2: lambda a, b: a | b,
    OP_NAND2: lambda a, b: 1 - (a & b),
    OP_NOR2: lambda a, b: 1 - (a | b),
    OP_XOR2: lambda a, b: a ^ b,
    OP_XNOR2: lambda a, b: 1 - (a ^ b),
    OP_MUX2: lambda d0, d1, s: d1 if s else d0,
    OP_TRIBUF: lambda d, e: d,  # transparent by design
    OP_AND3: lambda a, b, c: a & b & c,
    OP_OR3: lambda a, b, c: a | b | c,
}


class TestEvalScalar:
    @pytest.mark.parametrize("name", sorted(ALL_OPCODES))
    def test_matches_reference_exhaustively(self, name):
        opcode, arity = ALL_OPCODES[name]
        for bits in itertools.product((0, 1), repeat=arity):
            assert logic.eval_scalar(opcode, bits) == REFERENCE[opcode](*bits)

    def test_unknown_opcode_rejected(self):
        with pytest.raises(SimulationError):
            logic.eval_scalar(999, [0])

    def test_tribuf_stateful_helper(self):
        assert logic.eval_tribuf_scalar(1, 1, 0) == 1
        assert logic.eval_tribuf_scalar(1, 0, 0) == 0  # holds


class TestEvalVector:
    @pytest.mark.parametrize("name", sorted(ALL_OPCODES))
    def test_matches_scalar_on_all_inputs(self, name):
        opcode, arity = ALL_OPCODES[name]
        columns = np.array(
            list(itertools.product((0, 1), repeat=arity)), dtype=np.uint8
        ).T
        out = logic.eval_vector(opcode, list(columns))
        expected = [
            logic.eval_scalar(opcode, columns[:, k])
            for k in range(columns.shape[1])
        ]
        assert out.tolist() == expected

    def test_unknown_opcode_rejected(self):
        with pytest.raises(SimulationError):
            logic.eval_vector(999, [np.zeros(1, dtype=np.uint8)])


class TestPackUnpack:
    def test_roundtrip(self):
        words = np.array([0, 1, 5, 1023, 2**32 - 1], dtype=np.uint64)
        bits = logic.unpack_bits(words, 33)
        assert np.array_equal(logic.pack_bits(bits), words)

    def test_unpack_rejects_overflow(self):
        with pytest.raises(SimulationError):
            logic.unpack_bits(np.array([8], dtype=np.uint64), 3)

    def test_pack_rejects_wide_matrix(self):
        with pytest.raises(SimulationError):
            logic.pack_bits(np.zeros((65, 2), dtype=np.uint8))

    def test_unpack_rejects_bad_width(self):
        with pytest.raises(SimulationError):
            logic.unpack_bits(np.array([0], dtype=np.uint64), 0)


class TestTribufMaskedToggles:
    def test_enabled_everywhere_counts_plain_changes(self):
        values = np.array([0, 1, 1, 0], dtype=np.uint8)
        enables = np.ones(4, dtype=np.uint8)
        toggles, final = logic.tribuf_masked_toggles(values, enables)
        assert toggles.tolist() == [False, True, False, True]
        assert final == 0

    def test_disabled_steps_hold(self):
        values = np.array([0, 1, 0, 1], dtype=np.uint8)
        enables = np.array([1, 0, 0, 1], dtype=np.uint8)
        toggles, final = logic.tribuf_masked_toggles(values, enables)
        # Held at 0 through the disabled middle; re-enable sees 1.
        assert toggles.tolist() == [False, False, False, True]
        assert final == 1

    def test_carry_value_used_across_chunks(self):
        values = np.array([1, 1], dtype=np.uint8)
        enables = np.array([1, 1], dtype=np.uint8)
        toggles, _ = logic.tribuf_masked_toggles(values, enables, carry_value=0)
        assert toggles.tolist() == [True, False]

    def test_never_enabled_is_quiet(self):
        values = np.array([0, 1, 0], dtype=np.uint8)
        enables = np.zeros(3, dtype=np.uint8)
        toggles, _ = logic.tribuf_masked_toggles(values, enables)
        assert not toggles.any()

    def test_length_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            logic.tribuf_masked_toggles(
                np.zeros(3, dtype=np.uint8), np.zeros(2, dtype=np.uint8)
            )

    @staticmethod
    def _held_reference(values, enables, carry):
        """Plain-loop hold: before the first enable the net holds
        ``carry``, or without one the first enabled value."""
        held = carry
        if held is None:
            enabled = [v for v, e in zip(values, enables) if e]
            held = enabled[0] if enabled else 0
        toggles = []
        for value, enable in zip(values, enables):
            new = value if enable else held
            toggles.append(bool(new != held))
            held = new
        return toggles, held

    @pytest.mark.parametrize("carry", [None, 0, 1])
    def test_stacked_rows_match_plain_loop(self, carry):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 2, (5, 40)).astype(np.uint8)
        enables = (rng.random(40) < 0.3).astype(np.uint8)
        enables[:6] = 0  # the hold starts before the first enable
        first = int(np.argmax(enables))
        # Some rows change between pattern 0 and the first enable.
        assert 0 < (values[:, 0] != values[:, first]).sum() < 5
        toggles, finals = logic.tribuf_masked_toggles(
            values, enables, carry
        )
        assert toggles.shape == values.shape
        for row in range(values.shape[0]):
            want, final = self._held_reference(
                values[row].tolist(), enables.tolist(), carry
            )
            single, single_final = logic.tribuf_masked_toggles(
                values[row], enables, carry
            )
            assert toggles[row].tolist() == want == single.tolist()
            assert int(finals[row]) == final == single_final


class TestTransitionVector:
    def _trans(self, opcode, values, transitions, changed=None, damping=1.0):
        values = [np.asarray(v, dtype=np.uint8) for v in values]
        transitions = [np.asarray(t, dtype=float) for t in transitions]
        if changed is None:
            changed = np.zeros(values[0].shape, dtype=bool)
        return logic.transition_vector(
            opcode, values, transitions, changed, damping
        )

    def test_xor_sums_input_activity(self):
        out = self._trans(OP_XOR2, [[1], [0]], [[2.0], [3.0]])
        assert out[0] == pytest.approx(5.0)

    def test_and_blocks_on_controlling_zero(self):
        # b = 0 kills transitions arriving on a.
        out = self._trans(OP_AND2, [[1], [0]], [[5.0], [0.0]])
        assert out[0] == pytest.approx(0.0)

    def test_or_blocks_on_controlling_one(self):
        out = self._trans(OP_OR2, [[1], [0]], [[0.0], [5.0]])
        assert out[0] == pytest.approx(0.0)

    def test_mux_passes_only_selected_data(self):
        # select = 0 with equal data: d1 activity is invisible.
        out = self._trans(
            OP_MUX2, [[1], [1], [0]], [[2.0], [9.0], [0.0]]
        )
        assert out[0] == pytest.approx(2.0)

    def test_mux_select_activity_needs_differing_data(self):
        differing = self._trans(
            OP_MUX2, [[0], [1], [0]], [[0.0], [0.0], [4.0]]
        )
        equal = self._trans(
            OP_MUX2, [[1], [1], [0]], [[0.0], [0.0], [4.0]]
        )
        assert differing[0] > equal[0]

    def test_tribuf_disabled_is_quiet(self):
        out = self._trans(OP_TRIBUF, [[1], [0]], [[7.0], [0.0]])
        assert out[0] == pytest.approx(0.0)

    def test_floored_at_functional_change(self):
        out = self._trans(
            OP_AND2,
            [[1], [0]],
            [[5.0], [0.0]],
            changed=np.array([True]),
        )
        assert out[0] >= 1.0

    def test_damping_scales_glitches(self):
        undamped = self._trans(OP_XOR2, [[1], [0]], [[2.0], [2.0]])
        damped = self._trans(
            OP_XOR2, [[1], [0]], [[2.0], [2.0]], damping=0.5
        )
        assert damped[0] == pytest.approx(0.5 * undamped[0])

    def test_unknown_opcode_rejected(self):
        with pytest.raises(SimulationError):
            self._trans(999, [[0]], [[0.0]])
