"""Cross-engine fuzzing on randomized netlists.

Hypothesis builds random combinational DAGs over the full gate set
(minus TRIBUF, whose hold semantics are only defined under the bypass
masking discipline) and checks the engine-agreement invariants:

* all engines agree on settled output values;
* the event-driven transport-delay settle time never exceeds the
  floating-mode arrival bound;
* inertial-mode delays never exceed floating-mode delays;
* chunked streaming is exact;
* a dump/parse round trip simulates identically;
* the production ``soa`` kernel is bit-identical to the ``percell``
  reference on values, delays and bit arrivals, with and without
  folding and fault hooks;
* batched arrival replay of ``k`` random corners is bit-identical, per
  corner, to a ``percell`` run at that corner's delay scale, with whole
  and with forced 8-pattern chunks;
* net activity (signal probabilities and toggle counts) from the SoA
  and ``percell`` values-only passes equals activity rebuilt from
  :meth:`EventSimulator.settle` pattern by pattern, and on bypass
  multipliers the tri-state hold of grouped cells matches a plain loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arith import column_bypass_multiplier, row_bypass_multiplier
from repro.faults.injector import compile_with_faults
from repro.faults.models import StuckAtFault, TransientBitFlip
from repro.nets.export import dump_netlist, parse_netlist
from repro.nets.netlist import Netlist
from repro.timing import (
    ArrivalReplay,
    CompiledCircuit,
    EventSimulator,
    build_value_plane,
)
from repro.timing import replay as replay_mod
from repro.timing.engine import KERNELS
from repro.workloads import uniform_operands

GATES_1 = ["INV", "BUF"]
GATES_2 = ["AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"]
GATES_3 = ["MUX2", "AND3", "OR3"]


@st.composite
def random_netlists(draw, max_patterns=8):
    """A random combinational DAG with 2-5 inputs and 5-25 gates,
    driven by a stream of 2 to ``max_patterns`` patterns."""
    num_inputs = draw(st.integers(2, 5))
    num_gates = draw(st.integers(5, 25))
    nl = Netlist("fuzz")
    nets = list(nl.add_input_port("x", num_inputs))
    rng_choices = st.integers(0, 10**9)
    for k in range(num_gates):
        arity_pick = draw(st.integers(0, 9))
        if arity_pick < 2:
            gate = GATES_1[draw(st.integers(0, len(GATES_1) - 1))]
            arity = 1
        elif arity_pick < 8:
            gate = GATES_2[draw(st.integers(0, len(GATES_2) - 1))]
            arity = 2
        else:
            gate = GATES_3[draw(st.integers(0, len(GATES_3) - 1))]
            arity = 3
        picks = [
            nets[draw(rng_choices) % len(nets)] for _ in range(arity)
        ]
        nets.append(nl.add_cell(gate, picks))
    # Outputs: the last few nets (guaranteed driven).
    out_count = draw(st.integers(1, min(4, len(nets))))
    nl.add_output_port("o", nets[-out_count:])
    nl.validate()

    num_patterns = draw(st.integers(2, max_patterns))
    stimulus = [
        draw(st.integers(0, (1 << num_inputs) - 1))
        for _ in range(num_patterns)
    ]
    return nl, np.array(stimulus, dtype=np.uint64)


@settings(max_examples=60, deadline=None)
@given(random_netlists())
def test_engines_agree_on_values(case):
    nl, stimulus = case
    floating = CompiledCircuit(nl, mode="floating").run({"x": stimulus})
    inertial = CompiledCircuit(nl, mode="inertial").run({"x": stimulus})
    assert np.array_equal(floating.outputs["o"], inertial.outputs["o"])

    event = EventSimulator(nl)
    for k in range(1, stimulus.shape[0]):
        result = event.run_pair(
            {"x": int(stimulus[k - 1])}, {"x": int(stimulus[k])}
        )
        assert result.outputs["o"] == int(floating.outputs["o"][k])


@settings(max_examples=60, deadline=None)
@given(random_netlists())
def test_event_settle_bounded_by_floating(case):
    nl, stimulus = case
    floating = CompiledCircuit(nl, mode="floating").run({"x": stimulus})
    event = EventSimulator(nl)
    for k in range(1, stimulus.shape[0]):
        result = event.run_pair(
            {"x": int(stimulus[k - 1])}, {"x": int(stimulus[k])}
        )
        assert result.settle_time <= floating.delays[k] + 1e-9


@settings(max_examples=60, deadline=None)
@given(random_netlists())
def test_inertial_below_floating(case):
    nl, stimulus = case
    floating = CompiledCircuit(nl, mode="floating").run({"x": stimulus})
    inertial = CompiledCircuit(nl, mode="inertial").run({"x": stimulus})
    assert np.all(inertial.delays <= floating.delays + 1e-9)


@settings(max_examples=40, deadline=None)
@given(random_netlists(), st.integers(1, 5))
def test_chunked_streaming_exact(case, chunk_size):
    nl, stimulus = case
    circuit = CompiledCircuit(nl)
    whole = circuit.run({"x": stimulus})
    chunked = circuit.run({"x": stimulus}, chunk_size=chunk_size)
    assert np.array_equal(whole.outputs["o"], chunked.outputs["o"])
    assert np.allclose(whole.delays, chunked.delays)
    assert np.allclose(whole.switched_caps, chunked.switched_caps)


@settings(max_examples=40, deadline=None)
@given(random_netlists(), st.sampled_from(["inertial", "floating"]),
       st.booleans(), st.booleans())
def test_kernels_bit_identical(case, mode, fold, bit_arrivals):
    nl, stimulus = case
    want, got = (
        CompiledCircuit(nl, mode=mode, kernel=kernel).run(
            {"x": stimulus}, fold=fold,
            collect_bit_arrivals=bit_arrivals,
        )
        for kernel in ("percell", "soa")
    )
    assert np.array_equal(got.outputs["o"], want.outputs["o"])
    assert np.array_equal(got.delays, want.delays)
    assert np.allclose(got.switched_caps, want.switched_caps,
                       rtol=1e-12, atol=1e-9)
    if bit_arrivals:
        assert np.array_equal(got.bit_arrivals["o"],
                              want.bit_arrivals["o"])


@settings(max_examples=30, deadline=None)
@given(random_netlists(), st.integers(0, 10**9), st.booleans())
def test_kernels_bit_identical_with_fault_hooks(case, pick, seu):
    nl, stimulus = case
    cells = nl.cells
    target = cells[pick % len(cells)].output
    if seu:
        faults = [TransientBitFlip(net=target, rate=0.3,
                                   seed=pick % 97)]
    else:
        faults = [StuckAtFault(net=target, value=pick % 2)]
    want, got = (
        compile_with_faults(nl, faults, kernel=kernel).run(
            {"x": stimulus}, collect_bit_arrivals=True
        )
        for kernel in ("percell", "soa")
    )
    assert np.array_equal(got.outputs["o"], want.outputs["o"])
    assert np.array_equal(got.delays, want.delays)
    assert np.array_equal(got.bit_arrivals["o"], want.bit_arrivals["o"])


@settings(max_examples=40, deadline=None)
@given(random_netlists())
def test_export_roundtrip_simulates_identically(case):
    nl, stimulus = case
    parsed = parse_netlist(dump_netlist(nl))
    original = CompiledCircuit(nl).run({"x": stimulus})
    roundtrip = CompiledCircuit(parsed).run({"x": stimulus})
    assert np.array_equal(original.outputs["o"], roundtrip.outputs["o"])
    assert np.allclose(original.delays, roundtrip.delays)


def assert_replay_matches_percell(nl, stimulus, mode, scales):
    """Replay ``scales`` over one value plane, whole and in forced
    8-pattern chunks, and compare every corner byte for byte with a
    ``percell`` run at that corner's delay scale."""
    stim = {"x": stimulus}
    circuit = CompiledCircuit(nl, mode=mode)
    plane = build_value_plane(circuit, stim)
    replays = [
        ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay_mod, "REPLAY_CHUNK_TARGET_BYTES", 1)
        assert replay_mod._replay_chunk_size(plane.num_nets, 1) == 8
        replays.append(
            ArrivalReplay(circuit, plane).replay(
                scales, collect_bit_arrivals=True
            )
        )
    reference = CompiledCircuit(nl, mode=mode, kernel="percell")
    for j, row in enumerate(scales):
        want = reference.with_delay_scale(row).run(
            stim, collect_bit_arrivals=True
        )
        for got in replays:
            assert np.array_equal(got.delays[j], want.delays)
            assert np.array_equal(
                got.bit_arrivals["o"][:, j, :], want.bit_arrivals["o"]
            )


@settings(max_examples=40, deadline=None)
@given(random_netlists(max_patterns=41),
       st.sampled_from(["inertial", "floating"]),
       st.integers(1, 5), st.integers(0, 10**9))
def test_replay_bit_identical_to_percell_runs(case, mode, k, seed):
    nl, stimulus = case
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 2.0, (k, len(nl.cells)))
    assert_replay_matches_percell(nl, stimulus, mode, scales)


@pytest.mark.parametrize("mode", ["inertial", "floating"])
def test_replay_selection_shapes(mode):
    """MUX2 / AND3 / OR3 with mixed selects and controlling inputs, and
    a TRIBUF whose data moves while it is disabled (values pass through
    a tri-state, so it needs no bypass group here), over a 37-pattern
    stream: four full chunks plus a ragged tail."""
    nl = Netlist("shapes")
    x = list(nl.add_input_port("x", 5))
    a = nl.add_cell("XOR2", [x[0], x[1]])
    b = nl.add_cell("NAND2", [x[2], x[3]])
    c = nl.add_cell("INV", [x[4]])
    outs = [
        nl.add_cell("MUX2", [a, b, x[4]]),
        nl.add_cell("AND3", [a, b, c]),
        nl.add_cell("OR3", [a, c, x[2]]),
    ]
    outs.append(nl.add_cell("AND3", outs))
    outs.append(nl.add_cell("TRIBUF", [a, x[3]]))
    nl.add_output_port("o", outs)
    nl.validate()
    rng = np.random.default_rng(11)
    stimulus = rng.integers(0, 32, 37).astype(np.uint64)
    scales = rng.uniform(0.5, 2.0, (3, len(nl.cells)))
    assert_replay_matches_percell(nl, stimulus, mode, scales)


@settings(max_examples=40, deadline=None)
@given(random_netlists(max_patterns=41))
def test_net_activity_matches_event_settle(case):
    nl, stimulus = case
    stim = {"x": stimulus}
    event = EventSimulator(nl)
    # The settling pattern (pattern 0 itself) comes first.
    settled = [
        event.settle({"x": int(word)})
        for word in np.concatenate((stimulus[:1], stimulus))
    ]
    values = np.array(
        [[state[net] for state in settled] for net in range(nl.num_nets)]
    )
    want_probs = values.sum(axis=1) / values.shape[1]
    want_toggles = (values[:, 1:] != values[:, :-1]).sum(axis=1)
    for kernel in KERNELS:
        circuit = CompiledCircuit(nl, kernel=kernel)
        probs = circuit.signal_probability(stim)
        toggles = circuit.toggle_counts(stim)
        assert probs.tobytes() == want_probs.tobytes()
        assert toggles.dtype == np.float64
        assert toggles.tobytes() == want_toggles.astype(float).tobytes()


def _held_toggles(values, enables):
    """Toggles of a net that keeps its value while disabled; before the
    first enabled pattern it already holds that pattern's value."""
    held, count = None, 0
    for value, enabled in zip(values.tolist(), enables.tolist()):
        if enabled:
            if held is not None and value != held:
                count += 1
            held = value
    return count


@pytest.mark.parametrize(
    "build", [column_bypass_multiplier, row_bypass_multiplier]
)
def test_bypass_hold_toggles_match_percell(build):
    nl = build(6)
    md, mr = uniform_operands(6, 300, seed=4)
    stim = {"md": md, "mr": mr}
    soa = CompiledCircuit(nl)
    percell = CompiledCircuit(nl, kernel="percell")
    toggles = soa.toggle_counts(stim)
    assert toggles.tobytes() == percell.toggle_counts(stim).tobytes()
    values = percell._settled_values(stim, "test")
    functional = (values[:, 1:] != values[:, :-1]).sum(axis=1)
    held_less = 0
    for cell in nl.cells:
        net = cell.output
        if cell.group in nl.group_enables:
            enable = values[nl.group_enables[cell.group]]
            want = _held_toggles(values[net], enable)
            held_less += want < functional[net]
        else:
            want = functional[net]
        assert toggles[net] == want
    assert held_less > 0  # the hold really suppresses toggles here
