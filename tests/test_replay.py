"""Two-plane engine: value plane + arrival replay must be bit-identical
to the scalar oracle (``tests/oracle.py``) for every mode, chunking,
fault-hook and corner combination.  :meth:`CompiledCircuit.run` is
itself a plane plus a replay, so it is checked against the oracle too,
never used as the reference."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aging.degradation import AgedCircuitFactory
from repro.arith import (
    array_multiplier,
    column_bypass_multiplier,
    row_bypass_multiplier,
    wallace_multiplier,
)
from repro.errors import SimulationError
from repro.experiments.context import ExperimentContext
from repro.experiments.store import ArtifactStore
from repro.faults.campaign import InjectionCampaign
from repro.faults.injector import compile_with_faults
from repro.faults.models import StuckAtFault, TransientBitFlip
from repro.timing import (
    ArrivalReplay,
    CompiledCircuit,
    StaticTiming,
    ValuePlaneCache,
    build_switched_caps,
    build_value_plane,
    plane_cache_key,
)
from repro.timing import replay as replay_mod
from repro.timing.replay import _replay_chunk_size
from repro.timing.sta import critical_delays
from repro.workloads import uniform_operands

from oracle import Oracle


@pytest.fixture(scope="module")
def cb8():
    return column_bypass_multiplier(8)


@pytest.fixture(scope="module")
def stream8():
    md, mr = uniform_operands(8, 600, seed=3)
    return {"md": md, "mr": mr}


@pytest.fixture(scope="module")
def short8():
    """A stream short enough for the oracle (about 0.1 s per run)."""
    md, mr = uniform_operands(8, 96, seed=3)
    return {"md": md, "mr": mr}


def chunk_size(circuit, plane, k):
    """Patterns per chunk of a ``k``-corner replay of ``plane``."""
    return _replay_chunk_size(
        plane.num_cells, len(circuit.plan_rows().buckets), k
    )


def assert_matches_oracle(got, want, bit_arrivals=False, power=True):
    """A :class:`StreamResult` against an ``Oracle.run``: outputs,
    delays and bit arrivals byte for byte, switched capacitance to
    float association (the oracle sums it cell by cell).  ``power``
    False: ``got`` is a replayed stream, which carries no switched
    capacitance."""
    assert got.num_patterns == want.num_patterns
    for name, values in want.outputs.items():
        assert np.array_equal(got.outputs[name], values)
    assert np.array_equal(got.delays, want.delays)
    if power:
        assert np.allclose(
            got.switched_caps, want.switched_caps, rtol=1e-12, atol=1e-9
        )
    else:
        assert got.switched_caps is None
    if bit_arrivals:
        for name, matrix in want.bit_arrivals.items():
            assert np.array_equal(got.bit_arrivals[name], matrix)


def assert_replay_matches_oracle(got, delays, bit_arrivals=None):
    """A :class:`ReplayResult` against ``Oracle.replay``'s ``(k, n)``
    delays and port -> ``(width, k, n)`` bit arrivals, byte for byte."""
    assert got.delays.tobytes() == delays.tobytes()
    if bit_arrivals is not None:
        assert got.bit_arrivals.keys() == bit_arrivals.keys()
        for name, matrix in bit_arrivals.items():
            assert got.bit_arrivals[name].tobytes() == matrix.tobytes()


def assert_streams_identical(got, want, bit_arrivals=False, power=True):
    """Two :class:`StreamResult` s byte for byte; ``power`` False:
    ``got`` is a replayed stream, which carries no switched
    capacitance."""
    assert got.num_patterns == want.num_patterns
    for name, values in want.outputs.items():
        assert np.array_equal(got.outputs[name], values)
    assert np.array_equal(got.delays, want.delays)
    if power:
        assert np.array_equal(got.switched_caps, want.switched_caps)
    else:
        assert got.switched_caps is None
    if bit_arrivals:
        for name, matrix in want.bit_arrivals.items():
            assert np.array_equal(got.bit_arrivals[name], matrix)


def scales_for(circuit, k, seed=5):
    rng = np.random.default_rng(seed)
    num_cells = len(circuit.netlist.cells)
    return 1.0 + rng.uniform(0.0, 0.4, (k, num_cells))


class TestReplayEquivalence:
    @pytest.mark.parametrize("mode", ["inertial", "floating"])
    def test_batched_replay_matches_serial_runs(self, cb8, short8, mode):
        circuit = CompiledCircuit(cb8, mode=mode)
        plane = build_value_plane(circuit, short8)
        scales = scales_for(circuit, 3)
        replayed = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        assert_replay_matches_oracle(
            replayed, *Oracle(cb8, mode=mode).replay(short8, scales)
        )

    @pytest.mark.parametrize("mode", ["inertial", "floating"])
    def test_unit_scale_replay_matches_plain_run(self, cb8, short8, mode):
        circuit = CompiledCircuit(cb8, mode=mode)
        plane = build_value_plane(circuit, short8)
        want = Oracle(cb8, mode=mode).run(short8)
        assert_matches_oracle(
            ArrivalReplay(circuit, plane).stream(collect_bit_arrivals=True),
            want,
            bit_arrivals=True,
            power=False,
        )
        run = circuit.run(short8, collect_bit_arrivals=True)
        assert_matches_oracle(run, want, bit_arrivals=True)
        # The full run's switched capacitance is the power pass's.
        caps = build_switched_caps(circuit, short8)
        assert caps.tobytes() == run.switched_caps.tobytes()

    def test_chunked_plane_matches_unchunked(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        scales = scales_for(circuit, 2)
        whole = build_value_plane(circuit, stream8, chunk_size=10_000)
        chunked = build_value_plane(circuit, stream8, chunk_size=128)
        assert np.array_equal(whole.may_packed, chunked.may_packed)
        assert np.array_equal(whole.aux_packed, chunked.aux_packed)
        a = ArrivalReplay(circuit, whole).replay(scales)
        b = ArrivalReplay(circuit, chunked).replay(scales)
        assert np.array_equal(a.delays, b.delays)

    def test_replay_matches_chunked_reference_run(self, cb8, short8):
        # The whole-stream replay and runs whose value pass takes two
        # chunks (64 + 32 patterns), against the oracle.
        circuit = CompiledCircuit(cb8)
        scales = scales_for(circuit, 2)
        plane = build_value_plane(circuit, short8)
        replayed = ArrivalReplay(circuit, plane).replay(scales)
        delays, _ = Oracle(cb8).replay(short8, scales)
        assert_replay_matches_oracle(replayed, delays)
        for k in range(2):
            chunked = circuit.with_delay_scale(scales[k]).run(
                short8, chunk_size=64
            )
            assert chunked.delays.tobytes() == delays[k].tobytes()

    def test_replay_with_fault_hooks(self, cb8, short8):
        faults = [
            StuckAtFault(net=cb8.cells[10].output, value=1),
            TransientBitFlip(net=cb8.cells[40].output, rate=0.1, seed=2),
        ]
        circuit = compile_with_faults(cb8, faults)
        scales = scales_for(circuit, 2)
        plane = build_value_plane(circuit, short8)
        replayed = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        oracle = Oracle(cb8, fault_hooks=circuit.fault_hooks)
        assert_replay_matches_oracle(
            replayed, *oracle.replay(short8, scales)
        )
        assert_matches_oracle(
            circuit.with_delay_scale(scales[0]).run(short8),
            oracle.run(short8, scales[0]),
        )

    def test_initial_condition_respected(self, cb8):
        circuit = CompiledCircuit(cb8)
        stim = {"md": [7, 7, 3], "mr": [5, 5, 9]}
        initial = {"md": 0, "mr": 255}
        plane = build_value_plane(circuit, stim, initial=initial)
        got = ArrivalReplay(circuit, plane).stream()
        want = circuit.run(stim, initial=initial)
        assert_streams_identical(got, want, power=False)
        caps = build_switched_caps(circuit, stim, initial=initial)
        assert caps.tobytes() == want.switched_caps.tobytes()
        # Pattern 0 switches against the initial state, not itself.
        assert caps[0] > 0

    def test_wide_batch_in_many_chunks_matches_single_runs(
        self, cb8, short8
    ):
        # Monte Carlo's shape: hundreds of corners per call, so the
        # replay runs in many pattern chunks.
        circuit = CompiledCircuit(cb8)
        plane = build_value_plane(circuit, short8)
        k = 512
        assert chunk_size(circuit, plane, k) < plane.num_patterns
        scales = scales_for(circuit, k, seed=9)
        replayed = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        rows = [0, 1, 200, k - 2, k - 1]
        delays, bit_arrivals = Oracle(cb8).replay(short8, scales[rows])
        for j, row in enumerate(rows):
            got = replayed.stream_result(row)
            assert got.delays.tobytes() == delays[j].tobytes()
            for name, matrix in bit_arrivals.items():
                assert np.array_equal(got.bit_arrivals[name], matrix[:, j])

    def test_monte_carlo_batch_in_eight_pattern_chunks(
        self, cb8, short8, monkeypatch
    ):
        # Monte Carlo's slab width: the block rule replays it in
        # 8-pattern chunks, a third of what the memory cap alone gives.
        # The first, middle and last rows match the oracle, and the
        # whole batch matches the memory-rule chunking byte for byte.
        circuit = CompiledCircuit(cb8)
        plane = build_value_plane(circuit, short8)
        k = 1152
        assert chunk_size(circuit, plane, k) == 8
        scales = scales_for(circuit, k, seed=13)
        replayed = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        rows = [0, k // 2, k - 1]
        delays, bit_arrivals = Oracle(cb8).replay(short8, scales[rows])
        for j, row in enumerate(rows):
            got = replayed.stream_result(row)
            assert got.delays.tobytes() == delays[j].tobytes()
            for name, matrix in bit_arrivals.items():
                assert np.array_equal(got.bit_arrivals[name], matrix[:, j])
        monkeypatch.setattr(replay_mod, "REPLAY_BLOCK_TARGET", 2**62)
        by_memory = chunk_size(circuit, plane, k)
        assert 8 < by_memory < plane.num_patterns
        capped = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        assert capped.delays.tobytes() == replayed.delays.tobytes()
        assert capped.bit_arrivals.keys() == replayed.bit_arrivals.keys()
        for name, matrix in capped.bit_arrivals.items():
            assert matrix.tobytes() == replayed.bit_arrivals[name].tobytes()

    def test_mismatched_plane_rejected(self, cb8, stream8):
        inertial = CompiledCircuit(cb8, mode="inertial")
        floating = CompiledCircuit(cb8, mode="floating")
        plane = build_value_plane(inertial, stream8)
        with pytest.raises(SimulationError):
            ArrivalReplay(floating, plane)

    @pytest.mark.parametrize(
        "stimulus, match",
        [
            ({"md": 3, "mr": 4}, "1-D"),
            ({"md": [[1, 2]], "mr": [[1, 2]]}, "1-D"),
            ({}, "missing"),
        ],
        ids=["scalar", "2-D", "empty"],
    )
    def test_bad_stimulus_rejected(self, cb8, stimulus, match):
        """The plane builder validates like ``run``: a typed error that
        names the fault, not a misleading length complaint -- also
        before a folded run dedups the stream."""
        circuit = CompiledCircuit(cb8)
        with pytest.raises(SimulationError, match=match):
            build_value_plane(circuit, stimulus)
        with pytest.raises(SimulationError, match=match):
            circuit.run(stimulus, fold=True)

    def test_bad_delay_scales_rejected(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        plane = build_value_plane(circuit, stream8)
        replay = ArrivalReplay(circuit, plane)
        num_cells = len(cb8.cells)
        with pytest.raises(SimulationError):
            replay.replay(np.ones((2, num_cells + 1)))
        with pytest.raises(SimulationError):
            replay.replay(np.zeros((1, num_cells)))
        for bad in (np.nan, np.inf, -np.inf):
            scales = np.ones((3, num_cells))
            scales[1, num_cells // 2] = bad
            with pytest.raises(SimulationError, match="finite"):
                replay.replay(scales)
            with pytest.raises(SimulationError, match="finite"):
                circuit.with_delay_scale(scales[1])
            with pytest.raises(SimulationError, match="finite"):
                CompiledCircuit(cb8, delay_scale=scales[1])


class TestReplayChunks:
    """Replay in 8-pattern chunks, the floor, against one whole-stream
    chunk and the oracle, on streams whose chunks hold no activity at
    all or leave some buckets without an active entry.  45 patterns:
    the last chunk is ragged."""

    @staticmethod
    def _stimulus(case):
        md, mr = uniform_operands(4, 45, seed=3)
        if case == "quiet_chunk":
            # One operand pair held over patterns 7..23: chunks [8, 16)
            # and [16, 24) see no input change.
            md[7:24] = md[7]
            mr[7:24] = mr[7]
        else:
            md[:] = 3
        return {"md": md, "mr": mr}

    @staticmethod
    def _activity(circuit, plane):
        """``(chunk, bucket)`` -> whether any bucket output may change
        within the 8-pattern chunk."""
        may = np.stack([plane.may(net) for net in range(plane.num_nets)])
        buckets = [b for level in circuit.soa_plan().levels for b in level]
        return np.array([
            [may[b.outputs, start:start + 8].any() for b in buckets]
            for start in range(0, plane.num_patterns, 8)
        ])

    @pytest.mark.parametrize("k", [1, 2, 3, 64])
    @pytest.mark.parametrize("case", ["quiet_chunk", "quiet_bucket"])
    def test_eight_pattern_chunks_match_whole_and_oracle(
        self, cb4, case, k, monkeypatch
    ):
        stim = self._stimulus(case)
        circuit = CompiledCircuit(cb4)
        plane = build_value_plane(circuit, stim)
        active = self._activity(circuit, plane)
        if case == "quiet_chunk":
            assert (~active.any(axis=1)).any()
        else:
            assert (active.any(axis=1) & ~active.all(axis=1)).any()
        scales = scales_for(circuit, k)
        assert chunk_size(circuit, plane, k) >= plane.num_patterns
        whole = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        monkeypatch.setattr(replay_mod, "REPLAY_CHUNK_TARGET_BYTES", 1)
        assert chunk_size(circuit, plane, k) == 8
        chunked = ArrivalReplay(circuit, plane).replay(
            scales, collect_bit_arrivals=True
        )
        delays, bit_arrivals = Oracle(cb4).replay(stim, scales)
        for got in (whole, chunked):
            assert got.delays.tobytes() == delays.tobytes()
            assert got.bit_arrivals.keys() == bit_arrivals.keys()
            for name, matrix in bit_arrivals.items():
                assert got.bit_arrivals[name].tobytes() == matrix.tobytes()


class TestReplayChunkRule:
    """Chunks are the smallest multiple of 8 patterns whose mean bucket
    block reaches :data:`REPLAY_BLOCK_TARGET` elements, capped by the
    memory target and floored at 8."""

    @staticmethod
    def _memory_cap(num_cells, k):
        per_pattern = num_cells * (8 * k + 8)
        cap = replay_mod.REPLAY_CHUNK_TARGET_BYTES // per_pattern
        return cap - cap % 8

    @staticmethod
    def _shape(netlist):
        plan_rows = CompiledCircuit(netlist).plan_rows()
        return plan_rows.num_rows - plan_rows.base, len(plan_rows.buckets)

    def test_monte_carlo_shape_gets_eight(self, cb8):
        cells, buckets = self._shape(cb8)
        assert _replay_chunk_size(cells, buckets, 1152) == 8
        assert _replay_chunk_size(cells, buckets, 600) == 16
        # The memory cap alone would give three and six times as many.
        assert self._memory_cap(cells, 1152) == 24
        assert self._memory_cap(cells, 600) == 48

    def test_wide_design_at_few_corners_keeps_memory_cap(self):
        cells, buckets = self._shape(column_bypass_multiplier(32))
        cap = self._memory_cap(cells, 8)
        assert cap == 184
        assert _replay_chunk_size(cells, buckets, 8) == cap

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 10**6),
        st.integers(1, 10**4),
        st.integers(1, 10**4),
    )
    def test_any_shape_is_a_capped_multiple_of_eight(
        self, cells, buckets, k
    ):
        chunk = _replay_chunk_size(cells, buckets, k)
        assert chunk >= 8 and chunk % 8 == 0
        assert chunk == 8 or chunk <= self._memory_cap(cells, k)
        # The smallest such multiple: 8 fewer patterns miss the block
        # target (or the chunk is the floor).
        target = replay_mod.REPLAY_BLOCK_TARGET
        assert chunk == 8 or (chunk - 8) * cells * k < target * buckets


class TestValuePlaneCache:
    def test_memory_hit(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        cache = ValuePlaneCache()
        first = cache.get_or_build(circuit, stream8)
        second = cache.get_or_build(circuit, stream8)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_disk_round_trip(self, cb8, stream8, tmp_path):
        circuit = CompiledCircuit(cb8)
        writer = ValuePlaneCache(store=ArtifactStore(str(tmp_path)))
        plane = writer.get_or_build(circuit, stream8)
        assert writer.store.counters["plane"] == {
            "hits": 0, "misses": 1, "writes": 1,
        }
        reader = ValuePlaneCache(store=ArtifactStore(str(tmp_path)))
        loaded = reader.get_or_build(circuit, stream8)
        assert reader.disk_hits == 1
        assert reader.store.counters["plane"] == {
            "hits": 1, "misses": 0, "writes": 0,
        }
        assert loaded.key == plane.key
        assert np.array_equal(plane.may_packed, loaded.may_packed)
        assert np.array_equal(plane.aux_packed, loaded.aux_packed)
        got = ArrivalReplay(circuit, loaded).stream()
        assert_streams_identical(got, circuit.run(stream8), power=False)

    def test_corrupt_file_rebuilds(self, cb8, stream8, tmp_path):
        circuit = CompiledCircuit(cb8)
        writer = ValuePlaneCache(store=ArtifactStore(str(tmp_path)))
        writer.get_or_build(circuit, stream8)
        for path in tmp_path.iterdir():
            path.write_bytes(b"junk")
        reader = ValuePlaneCache(store=ArtifactStore(str(tmp_path)))
        plane = reader.get_or_build(circuit, stream8)
        assert reader.disk_hits == 0 and reader.misses == 1
        assert reader.store.corruption["artifacts"] == 1
        got = ArrivalReplay(circuit, plane).stream()
        assert_streams_identical(got, circuit.run(stream8), power=False)

    def test_numpy_initial_keys_like_python_ints(self, cb8, stream8):
        circuit = CompiledCircuit(cb8)
        numpy_initial = {"md": np.uint64(3), "mr": np.int64(5)}
        python_initial = {"md": 3, "mr": 5}
        assert plane_cache_key(circuit, stream8, numpy_initial) == (
            plane_cache_key(circuit, stream8, python_initial)
        )
        cache = ValuePlaneCache()
        first = cache.get_or_build(circuit, stream8, initial=numpy_initial)
        second = cache.get_or_build(circuit, stream8, initial=python_initial)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        want = circuit.run(stream8, initial=python_initial)
        assert_streams_identical(
            ArrivalReplay(circuit, first).stream(), want, power=False
        )

    def test_opaque_hook_bypasses_cache(self, cb8, stream8):
        def hook(values, start_index):
            return values

        circuit = CompiledCircuit(
            cb8, fault_hooks={cb8.cells[0].output: hook}
        )
        assert plane_cache_key(circuit, stream8, None) is None
        cache = ValuePlaneCache()
        cache.get_or_build(circuit, stream8)
        cache.get_or_build(circuit, stream8)
        assert cache.bypasses == 2 and cache.hits == 0

    def test_fault_hooks_are_cacheable(self, cb8, stream8):
        faults = [StuckAtFault(net=cb8.cells[10].output, value=0)]
        circuit = compile_with_faults(cb8, faults)
        pristine = CompiledCircuit(cb8)
        faulty_key = plane_cache_key(circuit, stream8, None)
        assert faulty_key is not None
        assert faulty_key != plane_cache_key(pristine, stream8, None)


class TestAgingIntegration:
    @pytest.fixture(scope="class")
    def factory(self, cb8):
        return AgedCircuitFactory.characterize(cb8, num_patterns=400)

    def test_factory_stream_results_match_full_runs(
        self, factory, cb8, short8
    ):
        years = [0.0, 3.0, 7.0]
        batched = factory.stream_results(years, short8)
        oracle = Oracle(cb8)
        for year, got in zip(years, batched):
            want = oracle.run(short8, factory.circuit(year).delay_scale)
            assert_matches_oracle(got, want, power=False)

    def test_lifetime_delay_scales_shape(self, factory, cb8):
        scales = factory.lifetime_delay_scales([0.0, 7.0])
        assert scales.shape == (2, len(cb8.cells))
        assert np.array_equal(scales[0], np.ones(len(cb8.cells)))

    def test_critical_delays_match_static_timing(self, factory, cb8):
        scales = factory.lifetime_delay_scales([0.0, 2.0, 7.0])
        batched = critical_delays(cb8, delay_scales=scales)
        for j in range(scales.shape[0]):
            sta = StaticTiming(cb8, delay_scale=scales[j])
            assert batched[j] == sta.critical_delay


class TestContextPrice:
    """``ExperimentContext.price``: every row bit-identical to a full
    run, one ``stream`` artifact per (netlist, stimulus, row), and a
    warm store serves every row without the engine."""

    @pytest.fixture(scope="class")
    def stimulus(self):
        # Short: every row of every design is also run by the oracle.
        md, mr = uniform_operands(8, 100, seed=3)
        return {"md": md, "mr": mr}

    @staticmethod
    def _netlist(name):
        return {
            "am": array_multiplier,
            "column": column_bypass_multiplier,
            "row": row_bypass_multiplier,
            "wallace": wallace_multiplier,
        }[name](8)

    @staticmethod
    def _scales(netlist):
        rng = np.random.default_rng(11)
        num_cells = len(netlist.cells)
        return np.vstack(
            [
                np.ones(num_cells),
                1.0 + rng.uniform(0.0, 0.4, (2, num_cells)),
            ]
        )

    @staticmethod
    def _stream_files(directory):
        return sorted(
            name for name in os.listdir(directory)
            if name.startswith("stream-")
        )

    @pytest.fixture(scope="class")
    def oracle_runs(self, stimulus):
        """Design name -> the oracle's runs of its three rows, shared
        by the stored and storeless cases."""
        runs = {}

        def get(name):
            if name not in runs:
                netlist = self._netlist(name)
                oracle = Oracle(netlist)
                runs[name] = [
                    oracle.run(stimulus, row)
                    for row in self._scales(netlist)
                ]
            return runs[name]

        return get

    @pytest.mark.parametrize("stored", [False, True])
    @pytest.mark.parametrize("name", ["am", "column", "row", "wallace"])
    def test_rows_match_full_runs(
        self, name, stored, stimulus, oracle_runs, tmp_path
    ):
        netlist = self._netlist(name)
        scales = self._scales(netlist)
        store = ArtifactStore(str(tmp_path)) if stored else None
        ctx = ExperimentContext(store=store)
        priced = ctx.price(netlist, scales, stimulus)
        assert len(priced) == 3
        for got, want in zip(priced, oracle_runs(name)):
            assert_matches_oracle(got, want, power=False)
        if stored:
            assert len(self._stream_files(tmp_path)) == 3
            # The paper's designs and the baselines alike are priced
            # without characterizing stress.
            assert store.counters["stress"]["writes"] == 0

    def test_keys_separate_stimuli_and_rows(self, tmp_path):
        netlist = self._netlist("wallace")
        scales = self._scales(netlist)
        store = ArtifactStore(str(tmp_path))
        ctx = ExperimentContext(store=store)
        stimuli = []
        for seed in (1, 2):
            md, mr = uniform_operands(8, 150, seed=seed)
            stimuli.append({"md": md, "mr": mr})
        first = ctx.price(netlist, scales[:1], stimuli[0])
        assert len(self._stream_files(tmp_path)) == 1
        second = ctx.price(netlist, scales[:1], stimuli[1])
        assert len(self._stream_files(tmp_path)) == 2
        assert not np.array_equal(first[0].delays, second[0].delays)
        ctx.price(netlist, scales[:2], stimuli[0])
        assert len(self._stream_files(tmp_path)) == 3
        # A repeated row is one artifact, loaded once.
        again = ctx.price(netlist, scales[[0, 0]], stimuli[0])
        assert again[0] is again[1]
        assert_streams_identical(again[0], first[0], power=False)
        assert store.counters["stream"]["writes"] == 3
        assert store.counters["stress"] == {
            "hits": 0, "misses": 0, "writes": 0,
        }
        assert not any(
            name.startswith("stress-") for name in os.listdir(tmp_path)
        )

    def test_warm_context_serves_every_row(
        self, stimulus, tmp_path, monkeypatch
    ):
        netlist = self._netlist("column")
        scales = self._scales(netlist)
        cold = ExperimentContext(store=ArtifactStore(str(tmp_path)))
        want = cold.price(netlist, scales, stimulus)

        def engine_called(*args, **kwargs):
            raise AssertionError("a warm store must not reach the engine")

        monkeypatch.setattr(CompiledCircuit, "run", engine_called)
        monkeypatch.setattr(ArrivalReplay, "replay", engine_called)
        monkeypatch.setattr(
            "repro.timing.value_cache.build_value_plane", engine_called
        )
        store = ArtifactStore(str(tmp_path))
        got = ExperimentContext(store=store).price(netlist, scales, stimulus)
        for a, b in zip(got, want):
            assert_streams_identical(a, b, power=False)
        assert store.counters["stream"] == {
            "hits": 3, "misses": 0, "writes": 0,
        }

    def test_campaign_baseline_shares_the_priced_row(self, tmp_path):
        """The fault campaign's pristine stream is stored under the key
        ``ExperimentContext.price`` uses: one artifact, which the context
        and a warm campaign then serve as hits."""
        store = ArtifactStore(str(tmp_path))
        ctx = ExperimentContext(store=store, characterize_patterns=300)
        arch = ctx.variable_design(8, "column", 3, 0.5)
        campaign = InjectionCampaign(
            arch, [], num_patterns=150, seed=5, years=5.0
        )
        stored = campaign.run_pristine(store)
        assert stored.report == campaign.run_pristine().report
        assert stored.mean_switched_caps == (
            campaign.run_pristine().mean_switched_caps
        )
        for kind in ("stream", "power"):
            assert store.counters[kind] == {
                "hits": 0, "misses": 1, "writes": 1,
            }
        stimulus = {"md": campaign.md, "mr": campaign.mr}
        scales = ctx.factory(8, "column").lifetime_delay_scales([5.0])
        (priced,) = ctx.price(arch.netlist, scales, stimulus)
        assert store.counters["stream"] == {
            "hits": 1, "misses": 1, "writes": 1,
        }
        warm = campaign.run_pristine(store)
        assert warm.report == stored.report
        assert warm.mean_switched_caps == stored.mean_switched_caps
        assert store.counters["stream"] == {
            "hits": 2, "misses": 1, "writes": 1,
        }
        assert store.counters["power"] == {
            "hits": 1, "misses": 1, "writes": 1,
        }
        want = CompiledCircuit(
            arch.netlist, ctx.technology, scales[0]
        ).run(stimulus)
        assert_streams_identical(priced, want, power=False)
