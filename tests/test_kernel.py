"""Levelized SoA kernel + unique-stimulus folding equivalence suite.

The structure-of-arrays chunk runner (``kernel="soa"``, the only
production path) and the reference per-cell interpreter
(``kernel="percell"``) must be bit-identical for every observable:
output values, per-pattern delays, bit arrivals, and (from the
values-only pass) toggle counts / signal probabilities, across chunk
sizes, initial conditions, every fault-hook model and every recovery
policy.  ``switched_caps`` is the
one deliberate exception *across kernels*: each accumulates
capacitance in a different float association (values identical to
~1 ulp, asserted with ``allclose``); within one kernel it stays exact,
which the folding and chunking tests assert.
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
    ValuePlaneCache,
    auto_chunk_size,
    build_value_plane,
    fold_stimulus,
    unfold_stream,
)
from repro.timing import replay as replay_mod
from repro.timing.engine import KERNELS
from repro.timing.fold import MIN_FOLD_PATTERNS
from repro.workloads import sparse_fir_stream, uniform_operands


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


def assert_same(got, want, bit_arrivals=False, caps_exact=True):
    assert got.num_patterns == want.num_patterns
    for name, values in want.outputs.items():
        assert np.array_equal(got.outputs[name], values)
    assert np.array_equal(got.delays, want.delays)
    if caps_exact:
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
    def test_kernels_match_percell_all_observables(
        self, cb8, stream8, mode
    ):
        percell = CompiledCircuit(cb8, mode=mode, kernel="percell")
        soa = CompiledCircuit(cb8, mode=mode)
        want = percell.run(stream8, collect_bit_arrivals=True)
        got = soa.run(stream8, collect_bit_arrivals=True)
        assert_same(got, want, bit_arrivals=True, caps_exact=False)
        assert np.array_equal(
            soa.signal_probability(stream8),
            percell.signal_probability(stream8),
        )
        assert np.array_equal(
            soa.toggle_counts(stream8), percell.toggle_counts(stream8)
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("chunk", [64, 136, 10_000])
    def test_chunked_matches_unchunked(self, cb8, stream8, chunk, kernel):
        circuit = CompiledCircuit(cb8, kernel=kernel)
        want = circuit.run(stream8, collect_bit_arrivals=True)
        got = circuit.run(stream8, collect_bit_arrivals=True,
                          chunk_size=chunk)
        assert_same(got, want, bit_arrivals=True)

    def test_initial_condition(self, cb8):
        stim = {"md": [7, 7, 3, 3], "mr": [5, 5, 9, 9]}
        initial = {"md": 0, "mr": 255}
        want = CompiledCircuit(cb8, kernel="percell").run(
            stim, initial=initial, collect_bit_arrivals=True
        )
        got = CompiledCircuit(cb8).run(
            stim, initial=initial, collect_bit_arrivals=True
        )
        assert_same(got, want, bit_arrivals=True, caps_exact=False)

    def test_unknown_kernel_rejected(self, cb8):
        assert KERNELS == ("soa", "percell")
        with pytest.raises(SimulationError):
            CompiledCircuit(cb8, kernel="simd")

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

    @pytest.mark.parametrize("kind", ["sa0", "sa1", "seu", "delay"])
    def test_every_fault_model_matches_percell(self, cb8, stream8, kind):
        faults = self.faults_for(cb8, kind)
        want = compile_with_faults(cb8, faults, kernel="percell").run(
            stream8, collect_bit_arrivals=True
        )
        got = compile_with_faults(cb8, faults).run(
            stream8, collect_bit_arrivals=True
        )
        assert_same(got, want, bit_arrivals=True, caps_exact=False)

    def test_multi_fault_chunked(self, cb8, stream8):
        faults = self.faults_for(cb8, "sa1") + self.faults_for(cb8, "seu")
        want = compile_with_faults(cb8, faults, kernel="percell").run(
            stream8, chunk_size=96
        )
        got = compile_with_faults(cb8, faults).run(stream8, chunk_size=96)
        assert_same(got, want, caps_exact=False)

    @pytest.mark.parametrize(
        "policy", ["strict", "degrade", "detect-only"]
    )
    def test_recovery_policies_see_identical_streams(self, policy):
        arch = AgingAwareMultiplier.build(8)
        md, mr = uniform_operands(8, 300, seed=9)
        streams = {}
        for kernel in KERNELS:
            circuit = CompiledCircuit(
                arch.netlist, arch.technology, kernel=kernel
            )
            streams[kernel] = circuit.run({"md": md, "mr": mr})
        a, b = (
            arch.run_patterns(md, mr, stream=streams[kernel], policy=policy)
            for kernel in ("soa", "percell")
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

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_run_fold_bit_identical(self, cb8, foldable8, kernel):
        circuit = CompiledCircuit(cb8, kernel=kernel)
        want = circuit.run(foldable8, collect_bit_arrivals=True)
        got = circuit.run(foldable8, collect_bit_arrivals=True, fold=True)
        assert_same(got, want, bit_arrivals=True)

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
    def scales_for(self, circuit, k, seed=5):
        rng = np.random.default_rng(seed)
        num_cells = len(circuit.netlist.cells)
        return 1.0 + rng.uniform(0.0, 0.4, (k, num_cells))

    @pytest.mark.parametrize("mode", ["inertial", "floating"])
    def test_replay_kernels_all_match(self, cb8, stream8, mode):
        results = {}
        for kernel in KERNELS:
            circuit = CompiledCircuit(cb8, mode=mode, kernel=kernel)
            plane = build_value_plane(circuit, stream8)
            results[kernel] = ArrivalReplay(circuit, plane).replay(
                self.scales_for(circuit, 3), collect_bit_arrivals=True
            )
        a, b = results["soa"], results["percell"]
        assert np.array_equal(a.delays, b.delays)
        for name in a.bit_arrivals:
            assert np.array_equal(a.bit_arrivals[name],
                                  b.bit_arrivals[name])

    def test_soa_replay_chunking_exact(self, cb8, stream8, monkeypatch):
        circuit = CompiledCircuit(cb8)
        plane = build_value_plane(circuit, stream8)
        scales = self.scales_for(circuit, 2)
        whole = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        # Shrink the memory target so the 600-pattern replay must run
        # in many byte-aligned chunks, down to the floor of 8.
        monkeypatch.setattr(
            replay_mod, "REPLAY_CHUNK_TARGET_BYTES", 1
        )
        assert replay_mod._replay_chunk_size(plane.num_nets, 2) == 8
        chunked = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        assert np.array_equal(whole.delays, chunked.delays)
        for name in whole.bit_arrivals:
            assert np.array_equal(whole.bit_arrivals[name],
                                  chunked.bit_arrivals[name])

    def test_replay_chunk_size_properties(self):
        assert replay_mod._replay_chunk_size(1, 1) % 8 == 0
        assert replay_mod._replay_chunk_size(10**9, 10**3) == 8
        big = replay_mod._replay_chunk_size(100, 1)
        assert big >= 8 and big % 8 == 0

    def test_folded_lifetime_sweep_matches_full_runs(self, cb8, foldable8):
        factory = AgedCircuitFactory.characterize(cb8, num_patterns=400)
        years = [0.0, 3.0, 7.0]
        folded = factory.stream_results(years, foldable8, fold=True)
        plain = factory.stream_results(years, foldable8, fold=False)
        for year, got, want in zip(years, folded, plain):
            assert_same(got, want)
            direct = factory.circuit(year).run(foldable8)
            assert_same(got, direct)


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
        assert_same(got, circuit.run(foldable8))
