"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arith import (
    array_multiplier,
    column_bypass_multiplier,
    count_ones,
    count_zeros,
    row_bypass_multiplier,
)
from repro.arith.adders import carry_save_add
from repro.core.aging_indicator import AgingIndicator
from repro.core.judging import JudgingBlock
from repro.config import SimulationConfig
from repro.errors import WorkloadError
from repro.nets.netlist import CONST0, CONST1, Netlist
from repro.timing import CompiledCircuit
from repro.timing.logic import pack_bits, unpack_bits

# Netlist construction dominates runtime: build one instance per width
# and reuse across hypothesis examples.
_CIRCUITS = {}


def _circuit(kind, width):
    key = (kind, width)
    if key not in _CIRCUITS:
        generator = {
            "am": array_multiplier,
            "cb": column_bypass_multiplier,
            "rb": row_bypass_multiplier,
        }[kind]
        _CIRCUITS[key] = CompiledCircuit(generator(width))
    return _CIRCUITS[key]


@st.composite
def operand_streams(draw, max_width=7, max_len=12):
    width = draw(st.integers(2, max_width))
    length = draw(st.integers(1, max_len))
    high = (1 << width) - 1
    md = draw(
        st.lists(st.integers(0, high), min_size=length, max_size=length)
    )
    mr = draw(
        st.lists(st.integers(0, high), min_size=length, max_size=length)
    )
    return width, np.array(md, dtype=np.uint64), np.array(mr, dtype=np.uint64)


@settings(max_examples=60, deadline=None)
@given(operand_streams(), st.sampled_from(["am", "cb", "rb"]))
def test_multipliers_always_exact(stream, kind):
    """The bypass transformations never change the product."""
    width, md, mr = stream
    result = _circuit(kind, width).run({"md": md, "mr": mr})
    assert np.array_equal(result.outputs["p"], md * mr)


@settings(max_examples=60, deadline=None)
@given(operand_streams(max_width=6, max_len=8))
def test_bypassing_delay_never_negative_and_bounded(stream):
    width, md, mr = stream
    circuit = _circuit("cb", width)
    result = circuit.run({"md": md, "mr": mr})
    assert np.all(result.delays >= 0)
    from repro.timing import StaticTiming

    assert result.max_delay <= (
        StaticTiming(circuit.netlist, circuit.technology).critical_delay
        + 1e-9
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20),
    st.integers(1, 32),
)
def test_count_zeros_matches_bin(values, width):
    mask = (1 << width) - 1
    masked = [v & mask for v in values]
    zeros = count_zeros(np.array(masked, dtype=np.uint64), width)
    expected = [width - bin(v).count("1") for v in masked]
    assert zeros.tolist() == expected


@st.composite
def _operands(draw):
    """A width in 1..64 and operands of that width; 64-bit operands
    lean on the top bit."""
    width = draw(st.integers(1, 64))
    values = st.integers(0, (1 << width) - 1)
    if width == 64:
        values = values | st.integers(1 << 63, (1 << 64) - 1)
    return width, draw(st.lists(values, min_size=1, max_size=20))


@settings(max_examples=200, deadline=None)
@given(_operands())
def test_popcount_matches_bin_up_to_64_bits(case):
    width, values = case
    arr = np.array(values, dtype=np.uint64)
    ones = [bin(v).count("1") for v in values]
    assert count_ones(arr, width).tolist() == ones
    assert count_zeros(arr, width).tolist() == [width - k for k in ones]
    assert count_ones(arr[0], width) == ones[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 63), st.data())
def test_count_zeros_refuses_out_of_range_operands(width, data):
    wide = data.draw(st.integers(1 << width, (1 << 64) - 1))
    with pytest.raises(WorkloadError):
        count_zeros(np.array([0, wide], dtype=np.uint64), width)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**50), min_size=1, max_size=10))
def test_pack_unpack_roundtrip(words):
    arr = np.array(words, dtype=np.uint64)
    assert np.array_equal(pack_bits(unpack_bits(arr, 51)), arr)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.sampled_from([None, 0, 1])] * 3), st.integers(0, 7))
def test_carry_save_add_arithmetic(consts, live_bits):
    """sum + 2*carry == x + y + z for any const/live input mix."""
    live_count = sum(1 for c in consts if c is None)
    nl = Netlist("p")
    nets = iter(nl.add_input_port("x", live_count) if live_count else [])
    operands = [
        next(nets) if c is None else (CONST1 if c else CONST0)
        for c in consts
    ]
    total, carry = carry_save_add(nl, *operands)
    word = live_bits & ((1 << live_count) - 1) if live_count else 0
    bits = iter((word >> k) & 1 for k in range(live_count))
    resolved = [c if c is not None else next(bits) for c in consts]
    expected = sum(resolved)

    # Evaluate through the engine when anything is live.
    if live_count:
        outs = []
        for net in (total, carry):
            outs.append(
                net if net > CONST1 else nl.buf(
                    CONST1 if net == CONST1 else CONST0
                )
            )
        nl.add_output_port("s", [outs[0]])
        nl.add_output_port("c", [outs[1]])
        result = CompiledCircuit(nl).run({"x": [word]})
        got = int(result.outputs["s"][0]) + 2 * int(result.outputs["c"][0])
    else:
        got = (1 if total == CONST1 else 0) + 2 * (
            1 if carry == CONST1 else 0
        )
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 24),
    st.integers(0, 24),
    st.lists(st.integers(0, 2**24 - 1), min_size=1, max_size=30),
)
def test_judging_block_definition(width, skip, values):
    if skip > width:
        skip = width
    block = JudgingBlock(width, skip)
    mask = (1 << width) - 1
    operands = np.array([v & mask for v in values], dtype=np.uint64)
    flags = block.one_cycle(operands)
    for value, flag in zip(operands, flags):
        zeros = width - bin(int(value)).count("1")
        assert flag == (zeros >= skip)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.booleans(), min_size=1, max_size=400),
    st.integers(10, 50),
    st.integers(1, 10),
)
def test_aging_indicator_matches_reference_model(errors, window, threshold):
    """The incremental indicator equals a straightforward reference."""
    config = SimulationConfig(
        indicator_window=window, indicator_threshold=threshold
    )
    indicator = AgingIndicator(config)
    for error in errors:
        indicator.record(error)

    aged = False
    for start in range(0, len(errors) - window + 1, window):
        if sum(errors[start : start + window]) >= threshold:
            aged = True
            break
    assert indicator.aged == aged
