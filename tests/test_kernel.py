"""Levelized SoA engine + unique-stimulus folding equivalence suite.

The engine is checked against the scalar oracle (``tests/oracle.py``),
which shares no gate rules with it.  Output values, per-pattern delays,
bit arrivals and (from the values-only pass) toggle counts / signal
probabilities must be bit-identical to the oracle's, across delay
modes, per-cell delay scales, initial conditions, folding, chunking,
every fault-hook model and every recovery policy; arrival replay must
match the oracle corner by corner.  ``switched_caps`` is the one
exception against the oracle: the oracle sums capacitance cell by cell
and the engine bucket by bucket, so the two agree to float association
(asserted with ``rtol=1e-12``); within the engine it stays exact, which
the folding and chunking tests assert.  The oracle steps one pattern
and one cell at a time, so its streams stay short.  Test names that
say ``kernels`` name the engine's kernels these checks once compared;
the comparison is against the oracle (``..._oracle``).
"""

import numpy as np
import pytest

from repro.aging.degradation import AgedCircuitFactory
from repro.arith import column_bypass_multiplier
from repro.core.architecture import AgingAwareMultiplier
from repro.errors import SimulationError
from repro.experiments.store import ArtifactStore
from repro.faults.injector import compile_with_faults
from repro.faults.models import DelayFault, StuckAtFault, TransientBitFlip
from repro.timing import (
    ArrivalReplay,
    CompiledCircuit,
    StreamResult,
    ValuePlaneCache,
    auto_chunk_size,
    build_value_plane,
    fold_stimulus,
    unfold_stream,
)
from repro.timing import replay as replay_mod
from repro.timing.fold import MIN_FOLD_PATTERNS
from repro.workloads import sparse_fir_stream, uniform_operands

from oracle import Oracle

#: Oracle stream length on the 8x8 designs.
ORACLE_PATTERNS = 100


@pytest.fixture(scope="module")
def cb8():
    return column_bypass_multiplier(8)


@pytest.fixture(scope="module")
def stream8():
    md, mr = uniform_operands(8, 600, seed=3)
    return {"md": md, "mr": mr}


@pytest.fixture(scope="module")
def foldable8():
    md, mr = sparse_fir_stream(8, 600, seed=1)
    return {"md": md, "mr": mr}


@pytest.fixture(scope="module")
def short8():
    md, mr = uniform_operands(8, ORACLE_PATTERNS, seed=3)
    return {"md": md, "mr": mr}


def random_scales(netlist, k=None, seed=5):
    """Per-cell delay scales in [1, 1.4): one row, or ``(k, num_cells)``."""
    rng = np.random.default_rng(seed)
    shape = len(netlist.cells) if k is None else (k, len(netlist.cells))
    return 1.0 + rng.uniform(0.0, 0.4, shape)


def assert_same(got, want, bit_arrivals=False, caps_exact=True, power=True):
    """``power`` False: ``got`` is a replayed stream, which carries no
    switched capacitance."""
    assert got.num_patterns == want.num_patterns
    for name, values in want.outputs.items():
        assert np.array_equal(got.outputs[name], values)
    assert np.array_equal(got.delays, want.delays)
    if not power:
        assert got.switched_caps is None
    elif caps_exact:
        assert np.array_equal(got.switched_caps, want.switched_caps)
    else:
        assert np.allclose(
            got.switched_caps, want.switched_caps, rtol=1e-12, atol=1e-9
        )
    if bit_arrivals:
        for name, matrix in want.bit_arrivals.items():
            assert np.array_equal(got.bit_arrivals[name], matrix)


class TestKernelEquivalence:
    @pytest.mark.parametrize("mode", ["inertial", "floating"])
    def test_kernels_match_oracle_all_observables(
        self, cb8, short8, mode
    ):
        """Every observable of a run at random per-cell delay scales."""
        scale = random_scales(cb8)
        circuit = CompiledCircuit(cb8, delay_scale=scale, mode=mode)
        oracle = Oracle(cb8, mode=mode)
        want = oracle.run(short8, scale)
        got = circuit.run(short8, collect_bit_arrivals=True)
        assert_same(got, want, bit_arrivals=True, caps_exact=False)
        assert (
            circuit.signal_probability(short8).tobytes()
            == oracle.signal_probability(short8).tobytes()
        )
        assert (
            circuit.toggle_counts(short8).tobytes()
            == oracle.toggle_counts(short8).tobytes()
        )

    @pytest.mark.parametrize("chunk", [64, 136, 10_000])
    def test_chunked_matches_unchunked(self, cb8, stream8, chunk):
        circuit = CompiledCircuit(cb8)
        want = circuit.run(stream8, collect_bit_arrivals=True)
        got = circuit.run(stream8, collect_bit_arrivals=True,
                          chunk_size=chunk)
        assert_same(got, want, bit_arrivals=True)

    def test_initial_condition(self, cb8):
        stim = {"md": [7, 7, 3, 3], "mr": [5, 5, 9, 9]}
        initial = {"md": 0, "mr": 255}
        want = Oracle(cb8).run(stim, initial=initial)
        got = CompiledCircuit(cb8).run(
            stim, initial=initial, collect_bit_arrivals=True
        )
        assert_same(got, want, bit_arrivals=True, caps_exact=False)

    def test_cell_delays_cached_and_frozen(self, cb8):
        circuit = CompiledCircuit(cb8)
        delays = circuit.cell_delays_ns()
        assert circuit.cell_delays_ns() is delays
        with pytest.raises(ValueError):
            delays[0] = 1.0

    def test_default_reach_mask_cached(self, cb8):
        circuit = CompiledCircuit(cb8)
        first = circuit.output_reach_mask()
        assert circuit.output_reach_mask() is first


class TestFaultKernelEquivalence:
    def faults_for(self, cb8, kind):
        if kind == "sa0":
            return [StuckAtFault(net=cb8.cells[10].output, value=0)]
        if kind == "sa1":
            return [StuckAtFault(net=cb8.cells[21].output, value=1)]
        if kind == "seu":
            return [TransientBitFlip(net=cb8.cells[40].output,
                                     rate=0.1, seed=2)]
        return [DelayFault(cell=12, extra_ns=0.4)]

    def oracle_for(self, circuit):
        return Oracle(
            circuit.netlist, circuit.technology, circuit.mode,
            circuit.fault_hooks,
        )

    @pytest.mark.parametrize("kind", ["sa0", "sa1", "seu", "delay"])
    def test_every_fault_model_matches_oracle(self, cb8, short8, kind):
        """The oracle applies the fault hook one pattern at a time."""
        circuit = compile_with_faults(cb8, self.faults_for(cb8, kind))
        want = self.oracle_for(circuit).run(short8, circuit.delay_scale)
        got = circuit.run(short8, collect_bit_arrivals=True)
        assert_same(got, want, bit_arrivals=True, caps_exact=False)

    def test_multi_fault_chunked(self, cb8, short8):
        faults = self.faults_for(cb8, "sa1") + self.faults_for(cb8, "seu")
        circuit = compile_with_faults(cb8, faults)
        want = self.oracle_for(circuit).run(short8)
        got = circuit.run(short8, chunk_size=24)
        assert_same(got, want, caps_exact=False)

    @pytest.fixture(scope="class")
    def policy_case(self):
        arch = AgingAwareMultiplier.build(8, characterize_patterns=300)
        md, mr = uniform_operands(8, 300, seed=9)
        run = Oracle(arch.netlist, arch.technology).run({"md": md, "mr": mr})
        return arch, md, mr, StreamResult(
            outputs=run.outputs,
            delays=run.delays,
            switched_caps=run.switched_caps,
            num_patterns=run.num_patterns,
        )

    @pytest.mark.parametrize(
        "policy", ["strict", "degrade", "detect-only"]
    )
    def test_recovery_policies_see_identical_streams(
        self, policy, policy_case
    ):
        arch, md, mr, want = policy_case
        got = CompiledCircuit(arch.netlist, arch.technology).run(
            {"md": md, "mr": mr}
        )
        assert_same(got, want, caps_exact=False)
        a, b = (
            arch.run_patterns(md, mr, stream=stream, policy=policy)
            for stream in (got, want)
        )
        assert np.array_equal(a.products, b.products)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.delays, b.delays)
        assert a.report == b.report


class TestFolding:
    def test_fold_plan_round_trip(self, foldable8):
        plan = fold_stimulus(foldable8)
        assert plan.num_unique < plan.num_patterns
        assert plan.profitable
        assert plan.fold_factor > 1.0
        # Scattering the folded settled halves back must reproduce the
        # stream: pattern k equals unique pattern inverse[k].
        for name in foldable8:
            folded = np.asarray(plan.folded[name])
            full = np.asarray(foldable8[name], dtype=np.uint64)
            assert np.array_equal(folded[1::2][plan.inverse], full)

    def test_run_fold_bit_identical(self, cb8, foldable8):
        circuit = CompiledCircuit(cb8)
        want = circuit.run(foldable8, collect_bit_arrivals=True)
        got = circuit.run(foldable8, collect_bit_arrivals=True, fold=True)
        assert_same(got, want, bit_arrivals=True)
        # The oracle has no folding: the folded run must match it too.
        head = {name: values[:ORACLE_PATTERNS]
                for name, values in foldable8.items()}
        assert fold_stimulus(head).profitable
        oracle = Oracle(cb8).run(head)
        assert_same(
            circuit.run(head, collect_bit_arrivals=True, fold=True),
            oracle, bit_arrivals=True, caps_exact=False,
        )

    def test_fold_with_initial(self, cb8, foldable8):
        circuit = CompiledCircuit(cb8)
        initial = {"md": 170, "mr": 85}
        want = circuit.run(foldable8, initial=initial)
        got = circuit.run(foldable8, initial=initial, fold=True)
        assert_same(got, want)

    def test_fold_unprofitable_stream_still_exact(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        plan = fold_stimulus(stream8)
        assert not plan.profitable  # uniform noise barely repeats
        got = circuit.run(stream8, fold=True)
        assert_same(got, circuit.run(stream8))

    def test_fold_bypassed_for_fault_hooks(self, cb8, foldable8):
        # TransientBitFlip keys off the *global* pattern index, which
        # folding renumbers -- the engine must refuse to fold hooked
        # circuits so flips stay deterministic.
        faults = [TransientBitFlip(net=cb8.cells[40].output,
                                   rate=0.2, seed=7)]
        circuit = compile_with_faults(cb8, faults)
        got = circuit.run(foldable8, fold=True)
        assert_same(got, circuit.run(foldable8))

    def test_short_streams_never_fold(self):
        md = np.zeros(MIN_FOLD_PATTERNS - 1, dtype=np.uint64)
        plan = fold_stimulus({"md": md, "mr": md})
        assert not plan.profitable

    def test_unfold_rejects_foreign_result(self, cb8, foldable8):
        circuit = CompiledCircuit(cb8)
        plan = fold_stimulus(foldable8)
        bad = circuit.run(foldable8)  # wrong length: not 2 * num_unique
        with pytest.raises(SimulationError):
            unfold_stream(bad, plan)


class TestReplayKernels:
    @pytest.mark.parametrize("mode", ["inertial", "floating"])
    def test_replay_kernels_all_match_oracle(self, cb8, mode):
        """Three corners replayed over one value plane against three
        oracle runs."""
        md, mr = uniform_operands(8, 40, seed=3)
        stim = {"md": md, "mr": mr}
        circuit = CompiledCircuit(cb8, mode=mode)
        scales = random_scales(cb8, k=3)
        got = ArrivalReplay(
            circuit, build_value_plane(circuit, stim)
        ).replay(scales, collect_bit_arrivals=True)
        delays, bit_arrivals = Oracle(cb8, mode=mode).replay(stim, scales)
        assert got.delays.tobytes() == delays.tobytes()
        for name, matrix in bit_arrivals.items():
            assert got.bit_arrivals[name].tobytes() == matrix.tobytes()

    def test_soa_replay_chunking_exact(self, cb8, stream8, monkeypatch):
        circuit = CompiledCircuit(cb8)
        plane = build_value_plane(circuit, stream8)
        scales = random_scales(cb8, k=2)
        whole = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        # Shrink the memory target so the 600-pattern replay must run
        # in many byte-aligned chunks, down to the floor of 8.
        monkeypatch.setattr(
            replay_mod, "REPLAY_CHUNK_TARGET_BYTES", 1
        )
        assert replay_mod._replay_chunk_size(
            plane.num_cells, len(circuit.plan_rows().buckets), 2
        ) == 8
        chunked = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        assert np.array_equal(whole.delays, chunked.delays)
        for name in whole.bit_arrivals:
            assert np.array_equal(whole.bit_arrivals[name],
                                  chunked.bit_arrivals[name])

    def test_replay_chunk_size_properties(self):
        assert replay_mod._replay_chunk_size(1, 1, 1) % 8 == 0
        assert replay_mod._replay_chunk_size(10**9, 10**3, 10**3) == 8
        big = replay_mod._replay_chunk_size(100, 1, 1)
        assert big >= 8 and big % 8 == 0

    def test_folded_lifetime_sweep_matches_full_runs(self, cb8, foldable8):
        factory = AgedCircuitFactory.characterize(cb8, num_patterns=400)
        years = [0.0, 3.0, 7.0]
        folded = factory.stream_results(years, foldable8, fold=True)
        plain = factory.stream_results(years, foldable8, fold=False)
        for year, got, want in zip(years, folded, plain):
            assert_same(got, want, power=False)
            direct = factory.circuit(year).run(foldable8)
            assert_same(got, direct, power=False)


class TestAutoChunkBoundaries:
    def test_tiny_netlist_gets_huge_chunk(self):
        chunk = auto_chunk_size(1, 10**9)
        assert chunk % 8 == 0
        assert chunk >= 64

    def test_huge_netlist_hits_floor(self):
        assert auto_chunk_size(10**9, 100) == 64

    def test_always_byte_aligned(self):
        for nets in (1, 7, 64, 1023, 50_000):
            assert auto_chunk_size(nets, 1000) % 8 == 0

    def test_chunk_larger_than_stream_means_unchunked(self, cb8):
        # A chunk above num_patterns is valid and equals the unchunked
        # result (the engine simply runs one chunk).
        circuit = CompiledCircuit(cb8)
        stim = {"md": [1, 2, 3], "mr": [4, 5, 6]}
        chunk = auto_chunk_size(circuit.netlist.num_nets, 3)
        assert chunk > 3
        assert_same(circuit.run(stim, chunk_size=chunk),
                    circuit.run(stim))


class TestValuePlaneCacheFolded:
    def test_lru_eviction(self, cb8):
        circuit = CompiledCircuit(cb8)
        cache = ValuePlaneCache(max_entries=2)
        streams = []
        for seed in (1, 2, 3):
            md, mr = uniform_operands(8, 72, seed=seed)
            streams.append({"md": md, "mr": mr})
        for stim in streams:
            cache.get_or_build(circuit, stim)
        assert len(cache._memory) == 2
        assert cache.misses == 3
        # Oldest entry (seed 1) was evicted: rebuilding it is a miss,
        # while the newest two still hit.
        cache.get_or_build(circuit, streams[2])
        cache.get_or_build(circuit, streams[1])
        assert cache.hits == 2
        cache.get_or_build(circuit, streams[0])
        assert cache.misses == 4

    def test_disk_round_trip_with_folded_stimulus(
        self, cb8, foldable8, tmp_path
    ):
        circuit = CompiledCircuit(cb8)
        plan = fold_stimulus(foldable8)
        assert plan.profitable
        writer = ValuePlaneCache(store=ArtifactStore(str(tmp_path)))
        writer.get_or_build(circuit, plan.folded)
        assert writer.misses == 1

        reader = ValuePlaneCache(store=ArtifactStore(str(tmp_path)))
        loaded = reader.get_or_build(circuit, plan.folded)
        assert reader.disk_hits == 1
        folded_result = ArrivalReplay(circuit, loaded).stream()
        got = unfold_stream(folded_result, plan)
        assert_same(got, circuit.run(foldable8), power=False)
