"""Levelized SoA kernel + unique-stimulus folding benchmarks.

Two gates, both on the 16x16 column-bypass multiplier, each timing
folding against the same engine with folding off:

* **Lifetime sweep**: value plane + batched 12-corner arrival replay
  over a zero-heavy FIR operand stream -- the workload class the
  paper's lifetime experiments run (pause frames / silent samples,
  Figs. 9-10 zero distributions).  The baseline is the unfolded value
  plane + replay; the default stack is fold -> value plane -> sparse
  replay, exactly what ``AgingAwareMultiplier.run_lifetime`` does.
  Must be >= 2x.
* **DSP single-pass** (fig09/10 workload): one full engine run on a
  long sparse FIR stream, unfolded ``run()`` vs ``run(fold=True)``.
  Folding collapses the stream to its unique transitions, so this must
  be >= 5x.

Every comparison asserts bit-identical outputs and delays before
timing claims are recorded in ``benchmarks/results/BENCH_kernel.json``.
"""

import json
import os
import time

import numpy as np

from repro.aging.degradation import AgedCircuitFactory
from repro.arith import column_bypass_multiplier
from repro.timing import ArrivalReplay, CompiledCircuit, build_value_plane
from repro.timing.fold import fold_stimulus, unfold_stream
from repro.workloads import sparse_fir_stream

SWEEP_PATTERNS = 6_000
DSP_PATTERNS = 20_000
TIMESTEPS = 12
LIFETIME_YEARS = 7.0
RESULTS = os.path.join(os.path.dirname(__file__), "results")
#: The default stack (fold + plane + replay) vs the unfolded plane +
#: replay.
MIN_SPEEDUP_SWEEP = 2.0
#: Folding gate on the fig09/10 DSP workload.
MIN_SPEEDUP_DSP = 5.0

_RECORD = {}


def _two_plane_sweep(netlist, technology, stimulus, scales):
    """Time the unfolded (value plane, replay); returns streams too."""
    circuit = CompiledCircuit(netlist, technology)
    t0 = time.perf_counter()
    plane = build_value_plane(circuit, stimulus)
    value_s = time.perf_counter() - t0
    replayer = ArrivalReplay(circuit, plane)
    rounds = []
    result = None
    for _ in range(2):
        t0 = time.perf_counter()
        result = replayer.replay(scales)
        rounds.append(time.perf_counter() - t0)
    return value_s, min(rounds), result


def test_lifetime_sweep_fold_speedup(benchmark):
    netlist = column_bypass_multiplier(16)
    factory = AgedCircuitFactory.characterize(netlist, num_patterns=400)
    md, mr = sparse_fir_stream(16, SWEEP_PATTERNS, seed=1)
    stimulus = {"md": md, "mr": mr}
    years = [
        LIFETIME_YEARS * i / (TIMESTEPS - 1) for i in range(TIMESTEPS)
    ]
    scales = factory.lifetime_delay_scales(years)
    technology = factory.technology

    # Baseline: the same engine with folding disabled.
    soa_value, soa_replay, soa_result = _two_plane_sweep(
        netlist, technology, stimulus, scales
    )

    # The new default stack (what run_lifetime does): fold the stream,
    # plane + replay the unique transitions, scatter every corner back.
    circuit = CompiledCircuit(netlist, technology)
    timings = {}

    def folded_sweep():
        t0 = time.perf_counter()
        plan = fold_stimulus(stimulus)
        plane = build_value_plane(circuit, plan.folded)
        replayed = ArrivalReplay(circuit, plane).replay(scales)
        streams = [
            unfold_stream(replayed.stream_result(j), plan)
            for j in range(len(years))
        ]
        timings["stack"] = time.perf_counter() - t0
        timings["fold_factor"] = plan.fold_factor
        return streams

    folded = benchmark.pedantic(folded_sweep, rounds=1, iterations=1)

    for j in range(len(years)):
        want = soa_result.stream_result(j)
        assert np.array_equal(folded[j].delays, want.delays)
        assert np.array_equal(folded[j].outputs["p"], want.outputs["p"])

    unfolded_s = soa_value + soa_replay
    stack_s = timings["stack"]
    stack_speedup = unfolded_s / stack_s
    _RECORD["sweep"] = {
        "experiment": (
            "16x16 column-bypass lifetime sweep, zero-heavy FIR stream"
        ),
        "num_patterns": SWEEP_PATTERNS,
        "timesteps": TIMESTEPS,
        "lifetime_years": LIFETIME_YEARS,
        "bit_identical": True,
        "soa_value_seconds": round(soa_value, 4),
        "soa_replay_seconds": round(soa_replay, 4),
        "soa_seconds": round(unfolded_s, 4),
        "stack_seconds": round(stack_s, 4),
        "fold_factor": round(timings["fold_factor"], 2),
        "stack_vs_unfolded_speedup": round(stack_speedup, 2),
    }
    _flush()
    print()
    print(
        "sweep: unfolded %.3fs | fold stack %.3fs (%.2fx)"
        % (unfolded_s, stack_s, stack_speedup)
    )
    assert stack_speedup >= MIN_SPEEDUP_SWEEP, (
        "folded lifetime sweep only %.2fx faster than the unfolded one"
        % stack_speedup
    )


def test_dsp_fold_speedup(benchmark):
    netlist = column_bypass_multiplier(16)
    circuit = CompiledCircuit(netlist)
    md, mr = sparse_fir_stream(16, DSP_PATTERNS, seed=5)
    stimulus = {"md": md, "mr": mr}

    t0 = time.perf_counter()
    want = circuit.run(stimulus)
    unfolded_s = time.perf_counter() - t0

    timings = {}

    def folded_run():
        rounds = []
        out = None
        for _ in range(2):
            t0 = time.perf_counter()
            out = circuit.run(stimulus, fold=True)
            rounds.append(time.perf_counter() - t0)
        timings["fold"] = min(rounds)
        return out

    got = benchmark.pedantic(folded_run, rounds=1, iterations=1)
    fold_s = timings["fold"]

    assert np.array_equal(got.outputs["p"], want.outputs["p"])
    assert np.array_equal(got.delays, want.delays)

    speedup = unfolded_s / fold_s
    plan = fold_stimulus(stimulus)
    _RECORD["dsp"] = {
        "experiment": "fig09/10 sparse FIR stream, single-pass run",
        "num_patterns": DSP_PATTERNS,
        "unique_transitions": int(plan.num_unique),
        "fold_factor": round(plan.fold_factor, 2),
        "bit_identical": True,
        "unfolded_seconds": round(unfolded_s, 4),
        "fold_soa_seconds": round(fold_s, 4),
        "fold_vs_unfolded_speedup": round(speedup, 2),
    }
    _flush()
    print()
    print(
        "dsp: unfolded %.3fs | folded %.3fs = %.2fx (fold factor %.1f)"
        % (unfolded_s, fold_s, speedup, plan.fold_factor)
    )
    assert speedup >= MIN_SPEEDUP_DSP, (
        "folded DSP run only %.2fx faster than the unfolded run"
        % speedup
    )


def _flush():
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "BENCH_kernel.json"), "w") as fh:
        json.dump(_RECORD, fh, indent=2, sort_keys=True)
        fh.write("\n")
