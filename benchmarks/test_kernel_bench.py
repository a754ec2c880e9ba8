"""Levelized SoA kernel + unique-stimulus folding benchmarks.

Two gates, both on the 16x16 column-bypass multiplier:

* **Lifetime sweep** (the PR 3 engine's flagship path): value plane +
  batched 12-corner arrival replay over a zero-heavy FIR operand stream
  -- the workload class the paper's lifetime experiments run (pause
  frames / silent samples, Figs. 9-10 zero distributions).  The PR 3
  baseline is the per-cell kernel end to end; the new default stack is
  fold -> SoA value plane -> sparse SoA replay, exactly what
  ``AgingAwareMultiplier.run_lifetime`` now does.  Must be >= 2x.
  The raw kernel (folding disabled) is timed and recorded too, with a
  looser anti-regression gate: its sparse replay only touches active
  (cell, pattern) entries, which is where bypassed columns pay off.
* **DSP single-pass** (fig09/10 workload): one full engine run on a
  long sparse FIR stream, per-cell baseline vs ``run(fold=True)``.
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
#: The default stack (fold + SoA kernel) vs the PR 3 per-cell engine.
MIN_SPEEDUP_SWEEP = 2.0
#: Anti-regression canary for the raw kernel with folding disabled.
MIN_SPEEDUP_KERNEL = 1.1
#: Folding gate on the fig09/10 DSP workload.
MIN_SPEEDUP_DSP = 5.0

_RECORD = {}


def _two_plane_sweep(netlist, technology, stimulus, scales, kernel):
    """Time (value plane, replay) for one kernel; returns streams too."""
    circuit = CompiledCircuit(netlist, technology, kernel=kernel)
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


def test_lifetime_sweep_kernel_speedup(benchmark):
    netlist = column_bypass_multiplier(16)
    factory = AgedCircuitFactory.characterize(netlist, num_patterns=400)
    md, mr = sparse_fir_stream(16, SWEEP_PATTERNS, seed=1)
    stimulus = {"md": md, "mr": mr}
    years = [
        LIFETIME_YEARS * i / (TIMESTEPS - 1) for i in range(TIMESTEPS)
    ]
    scales = factory.lifetime_delay_scales(years)
    technology = factory.technology

    # PR 3 baseline: per-cell value pass + per-cell pooled replay.
    pc_value, pc_replay, pc_result = _two_plane_sweep(
        netlist, technology, stimulus, scales, "percell"
    )
    # Raw levelized kernel, folding disabled.
    soa_value, soa_replay, soa_result = _two_plane_sweep(
        netlist, technology, stimulus, scales, "soa"
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
        want = pc_result.stream_result(j)
        for got in (soa_result.stream_result(j), folded[j]):
            assert np.array_equal(got.delays, want.delays)
            assert np.array_equal(got.outputs["p"], want.outputs["p"])

    pr3_s = pc_value + pc_replay
    kernel_s = soa_value + soa_replay
    stack_s = timings["stack"]
    kernel_speedup = pr3_s / kernel_s
    stack_speedup = pr3_s / stack_s
    _RECORD["sweep"] = {
        "experiment": (
            "16x16 column-bypass lifetime sweep, zero-heavy FIR stream"
        ),
        "num_patterns": SWEEP_PATTERNS,
        "timesteps": TIMESTEPS,
        "lifetime_years": LIFETIME_YEARS,
        "bit_identical": True,
        "percell_value_seconds": round(pc_value, 4),
        "percell_replay_seconds": round(pc_replay, 4),
        "percell_seconds": round(pr3_s, 4),
        "soa_value_seconds": round(soa_value, 4),
        "soa_replay_seconds": round(soa_replay, 4),
        "soa_seconds": round(kernel_s, 4),
        "stack_seconds": round(stack_s, 4),
        "fold_factor": round(timings["fold_factor"], 2),
        "kernel_speedup": round(kernel_speedup, 2),
        "stack_speedup": round(stack_speedup, 2),
    }
    _flush()
    print()
    print(
        "sweep: pr3 %.3fs | soa %.3fs (%.2fx) | fold+soa %.3fs (%.2fx)"
        % (pr3_s, kernel_s, kernel_speedup, stack_s, stack_speedup)
    )
    assert kernel_speedup >= MIN_SPEEDUP_KERNEL, (
        "raw SoA kernel regressed to %.2fx of the per-cell baseline"
        % kernel_speedup
    )
    assert stack_speedup >= MIN_SPEEDUP_SWEEP, (
        "fold+SoA lifetime sweep only %.2fx faster than the PR 3 engine"
        % stack_speedup
    )


def test_dsp_fold_speedup(benchmark):
    netlist = column_bypass_multiplier(16)
    circuit_pc = CompiledCircuit(netlist, kernel="percell")
    circuit_soa = CompiledCircuit(netlist)
    md, mr = sparse_fir_stream(16, DSP_PATTERNS, seed=5)
    stimulus = {"md": md, "mr": mr}

    t0 = time.perf_counter()
    want = circuit_pc.run(stimulus)
    percell_s = time.perf_counter() - t0

    timings = {}

    def folded_run():
        rounds = []
        out = None
        for _ in range(2):
            t0 = time.perf_counter()
            out = circuit_soa.run(stimulus, fold=True)
            rounds.append(time.perf_counter() - t0)
        timings["fold"] = min(rounds)
        return out

    got = benchmark.pedantic(folded_run, rounds=1, iterations=1)
    fold_s = timings["fold"]

    assert np.array_equal(got.outputs["p"], want.outputs["p"])
    assert np.array_equal(got.delays, want.delays)

    speedup = percell_s / fold_s
    plan = fold_stimulus(stimulus)
    _RECORD["dsp"] = {
        "experiment": "fig09/10 sparse FIR stream, single-pass run",
        "num_patterns": DSP_PATTERNS,
        "unique_transitions": int(plan.num_unique),
        "fold_factor": round(plan.fold_factor, 2),
        "bit_identical": True,
        "percell_seconds": round(percell_s, 4),
        "fold_soa_seconds": round(fold_s, 4),
        "fold_speedup": round(speedup, 2),
    }
    _flush()
    print()
    print(
        "dsp: percell %.3fs | fold+soa %.3fs = %.2fx (fold factor %.1f)"
        % (percell_s, fold_s, speedup, plan.fold_factor)
    )
    assert speedup >= MIN_SPEEDUP_DSP, (
        "folded DSP run only %.2fx faster than the per-cell baseline"
        % speedup
    )


def _flush():
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "BENCH_kernel.json"), "w") as fh:
        json.dump(_RECORD, fh, indent=2, sort_keys=True)
        fh.write("\n")
