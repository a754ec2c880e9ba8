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
* the engine is bit-identical to the scalar oracle (``tests/oracle.py``,
  which shares no gate rules with it) on values, delays and bit
  arrivals, with and without folding and fault hooks;
* batched arrival replay of ``k`` random corners is bit-identical, per
  corner, to an oracle run at that corner's delay scale, with whole
  and with forced 8-pattern chunks;
* net activity (signal probabilities and toggle counts) from the
  values-only pass equals activity rebuilt from
  :meth:`EventSimulator.settle` pattern by pattern and from the
  oracle's settled values, and on bypass multipliers the tri-state hold
  of grouped cells matches the oracle's hold loop;
* cone-delta replay of random mutant chains is bit-identical to a
  from-scratch evaluation and to the oracle, or refuses with a
  :class:`~repro.errors.DeltaError`;
* a hooked child (one random stuck-at, transient or delay site priced
  against the hook-free base) is bit-identical to the engine's hooked
  full run and to the oracle.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arith import column_bypass_multiplier, row_bypass_multiplier
from repro.errors import DeltaError
from repro.faults.injector import (
    build_fault_hooks,
    compile_with_faults,
    fault_delay_scales,
)
from repro.faults.models import DelayFault, StuckAtFault, TransientBitFlip
from repro.nets import Mutation, apply_mutations, tie_high, tie_low
from repro.nets.export import dump_netlist, parse_netlist
from repro.nets.netlist import Netlist
from repro.timing import (
    ArrivalReplay,
    CompiledCircuit,
    DeltaBase,
    EventSimulator,
    build_switched_caps,
    build_value_plane,
    evaluate_full,
    replay_delta,
)
from repro.timing import replay as replay_mod
from repro.workloads import uniform_operands

from oracle import Oracle

GATES_1 = ["INV", "BUF"]
GATES_2 = ["AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"]
GATES_3 = ["MUX2", "AND3", "OR3"]


@st.composite
def random_netlists(draw, max_patterns=8, min_patterns=2):
    """A random combinational DAG with 2-5 inputs and 5-25 gates,
    driven by a stream of ``min_patterns`` to ``max_patterns``
    patterns."""
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

    num_patterns = draw(st.integers(min_patterns, max_patterns))
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
@given(random_netlists(min_patterns=17, max_patterns=40),
       st.integers(1, 16), st.sampled_from(["inertial", "floating"]))
def test_chunked_streaming_exact(case, chunk_size, mode):
    # The value pass rounds chunks up to 8 or 16 patterns; 17 or more
    # patterns always make at least two chunks.
    nl, stimulus = case
    circuit = CompiledCircuit(nl, mode=mode)
    whole = circuit.run({"x": stimulus}, collect_bit_arrivals=True)
    chunked = circuit.run(
        {"x": stimulus}, chunk_size=chunk_size, collect_bit_arrivals=True
    )
    assert np.array_equal(whole.outputs["o"], chunked.outputs["o"])
    assert np.array_equal(whole.delays, chunked.delays)
    assert np.array_equal(whole.bit_arrivals["o"], chunked.bit_arrivals["o"])
    # The power pass chunks the same way, byte for byte.
    assert np.array_equal(
        build_switched_caps(circuit, {"x": stimulus}, chunk_size=None),
        build_switched_caps(circuit, {"x": stimulus}, chunk_size=chunk_size),
    )


@settings(max_examples=40, deadline=None)
@given(random_netlists(), st.sampled_from(["inertial", "floating"]),
       st.booleans(), st.booleans())
def test_run_bit_identical_to_oracle(case, mode, fold, bit_arrivals):
    nl, stimulus = case
    want = Oracle(nl, mode=mode).run({"x": stimulus})
    got = CompiledCircuit(nl, mode=mode).run(
        {"x": stimulus}, fold=fold, collect_bit_arrivals=bit_arrivals
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
def test_run_bit_identical_to_oracle_with_fault_hooks(case, pick, seu):
    nl, stimulus = case
    cells = nl.cells
    target = cells[pick % len(cells)].output
    if seu:
        faults = [TransientBitFlip(net=target, rate=0.3,
                                   seed=pick % 97)]
    else:
        faults = [StuckAtFault(net=target, value=pick % 2)]
    circuit = compile_with_faults(nl, faults)
    got = circuit.run({"x": stimulus}, collect_bit_arrivals=True)
    want = Oracle(nl, fault_hooks=circuit.fault_hooks).run({"x": stimulus})
    assert np.allclose(got.switched_caps, want.switched_caps,
                       rtol=1e-12, atol=1e-9)
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


def assert_replay_matches_oracle(nl, stimulus, mode, scales):
    """Replay ``scales`` over one value plane, whole and in forced
    8-pattern chunks, and compare every corner byte for byte with an
    oracle run at that corner's delay scale."""
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
        assert replay_mod._replay_chunk_size(
            plane.num_cells, len(circuit.plan_rows().buckets), 1
        ) == 8
        replays.append(
            ArrivalReplay(circuit, plane).replay(
                scales, collect_bit_arrivals=True
            )
        )
    delays, bit_arrivals = Oracle(nl, mode=mode).replay(stim, scales)
    for got in replays:
        assert got.delays.tobytes() == delays.tobytes()
        assert got.bit_arrivals["o"].tobytes() == bit_arrivals["o"].tobytes()


@settings(max_examples=40, deadline=None)
@given(random_netlists(max_patterns=41),
       st.sampled_from(["inertial", "floating"]),
       st.integers(1, 5), st.integers(0, 10**9))
def test_replay_bit_identical_to_oracle_runs(case, mode, k, seed):
    nl, stimulus = case
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 2.0, (k, len(nl.cells)))
    assert_replay_matches_oracle(nl, stimulus, mode, scales)


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
    assert_replay_matches_oracle(nl, stimulus, mode, scales)


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
    oracle = Oracle(nl)
    assert np.array_equal(oracle.settle(stim), values)
    want_probs = values.sum(axis=1) / values.shape[1]
    want_toggles = (values[:, 1:] != values[:, :-1]).sum(axis=1)
    circuit = CompiledCircuit(nl)
    probs = circuit.signal_probability(stim)
    toggles = circuit.toggle_counts(stim)
    assert probs.tobytes() == want_probs.tobytes()
    assert probs.tobytes() == oracle.signal_probability(stim).tobytes()
    assert toggles.dtype == np.float64
    assert toggles.tobytes() == want_toggles.astype(float).tobytes()
    assert toggles.tobytes() == oracle.toggle_counts(stim).tobytes()


@pytest.mark.parametrize(
    "build", [column_bypass_multiplier, row_bypass_multiplier]
)
def test_bypass_hold_toggles_match_oracle(build):
    nl = build(6)
    md, mr = uniform_operands(6, 300, seed=4)
    stim = {"md": md, "mr": mr}
    toggles = CompiledCircuit(nl).toggle_counts(stim)
    oracle = Oracle(nl)
    want = oracle.toggle_counts(stim)
    assert toggles.tobytes() == want.tobytes()
    values = oracle.settle(stim)
    functional = (values[:, 1:] != values[:, :-1]).sum(axis=1)
    held = [cell.output for cell in nl.cells
            if cell.group in nl.group_enables]
    assert held and np.all(want[held] <= functional[held])
    # The hold really suppresses toggles here.
    assert np.any(want[held] < functional[held])


GATES_BY_ARITY = {1: GATES_1, 2: GATES_2, 3: GATES_3}


@st.composite
def mutant_chains(draw, nl):
    """1-3 mutations of distinct cells: a same-arity retype, a constant
    tie, or a retype that rewires every pin to nets created before the
    cell's output (so the child stays acyclic; a rewire may still be
    unpatchable, which ``replay_delta`` refuses)."""
    picks = draw(st.lists(st.integers(0, len(nl.cells) - 1),
                          min_size=1, max_size=3, unique=True))
    chain = []
    for index in picks:
        cell = nl.cells[index]
        arity = cell.cell_type.num_inputs
        kind = draw(st.sampled_from(["retype", "tie_low", "tie_high",
                                     "rewire"]))
        if kind == "tie_low":
            chain.append(tie_low(index))
        elif kind == "tie_high":
            chain.append(tie_high(index))
        else:
            gate = draw(st.sampled_from(GATES_BY_ARITY[arity]))
            pins = None
            if kind == "rewire":
                pins = tuple(
                    draw(st.integers(0, cell.output - 1))
                    for _ in range(arity)
                )
            chain.append(Mutation(index, gate, pins))
    return chain


def test_delta_replay_matches_full_and_oracle():
    """``replay_delta`` against ``evaluate_full`` and the oracle on
    random netlists, mutant chains and ``(k, num_cells)`` scale
    matrices; a ``DeltaError`` refusal is counted, not filtered out."""
    outcomes = collections.Counter()

    @settings(max_examples=40, deadline=None)
    @given(random_netlists(max_patterns=24),
           st.sampled_from(["inertial", "floating"]),
           st.integers(1, 3), st.integers(0, 10**9), st.data())
    def check(case, mode, k, seed, data):
        nl, stimulus = case
        stim = {"x": stimulus}
        child = apply_mutations(nl, data.draw(mutant_chains(nl)))
        rng = np.random.default_rng(seed)
        base_scales = rng.uniform(0.5, 2.0, (k, len(nl.cells)))
        scales = base_scales.copy()
        nudged = rng.random(len(nl.cells)) < 0.2
        scales[:, nudged] *= rng.uniform(0.5, 2.0, (k, int(nudged.sum())))
        base = DeltaBase(CompiledCircuit(nl, mode=mode), stim, base_scales)
        want = evaluate_full(child, stim, scales, mode=mode,
                             collect_bit_arrivals=True)
        delays, bit_arrivals = Oracle(child, mode=mode).replay(stim, scales)
        assert want.delays.tobytes() == delays.tobytes()
        assert want.bit_arrivals["o"].tobytes() == bit_arrivals["o"].tobytes()
        try:
            got = replay_delta(base, child, scales,
                               collect_bit_arrivals=True)
        except DeltaError:
            outcomes["refused"] += 1
            return
        outcomes["replayed"] += 1
        assert np.array_equal(got.outputs["o"], want.outputs["o"])
        assert got.delays.tobytes() == delays.tobytes()
        assert got.bit_arrivals["o"].tobytes() == bit_arrivals["o"].tobytes()

    check()
    assert outcomes["replayed"] > outcomes["refused"], outcomes


@settings(max_examples=60, deadline=None)
@given(random_netlists(max_patterns=24),
       st.sampled_from(["inertial", "floating"]),
       st.sampled_from(["sa0", "sa1", "seu", "delay"]),
       st.integers(0, 10**9))
def test_hooked_delta_matches_engine_and_oracle(case, mode, kind, seed):
    """One random fault site priced as a delta against the pristine
    base -- stuck-at and transient faults as hooked children, on cell
    outputs and primary inputs alike, delay faults as a scale row --
    against ``compile_with_faults(...).run`` and the oracle."""
    nl, stimulus = case
    stim = {"x": stimulus}
    rng = np.random.default_rng(seed)
    row = rng.uniform(0.5, 2.0, len(nl.cells))
    nets = list(nl.input_ports["x"].nets) + [c.output for c in nl.cells]
    net = nets[seed % len(nets)]
    if kind == "delay":
        fault = DelayFault(seed % len(nl.cells), float(rng.uniform(0, 2)))
    elif kind == "seu":
        fault = TransientBitFlip(net, 0.3, seed=seed % 97)
    else:
        fault = StuckAtFault(net, int(kind[-1]))
    hooks = build_fault_hooks(nl, [fault])
    base = DeltaBase(CompiledCircuit(nl, mode=mode), stim, row)
    got = replay_delta(base, nl, fault_delay_scales(nl, [fault], row),
                       fault_hooks=hooks, collect_bit_arrivals=True)
    engine = compile_with_faults(nl, [fault], delay_scale=row,
                                 mode=mode).run(stim,
                                                collect_bit_arrivals=True)
    want = Oracle(nl, mode=mode, fault_hooks=hooks).run(
        stim, delay_scale=fault_delay_scales(nl, [fault], row)[0])
    for reference in (engine, want):
        assert np.array_equal(got.outputs["o"], reference.outputs["o"])
        assert got.delays[0].tobytes() == reference.delays.tobytes()
        assert (np.ascontiguousarray(got.bit_arrivals["o"][:, 0]).tobytes()
                == reference.bit_arrivals["o"].tobytes())
