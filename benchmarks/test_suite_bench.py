"""Parallel suite scheduler + persistent artifact store benchmarks.

Three timed configurations of the full 27-experiment suite at bench
scale, all through :func:`repro.experiments.run_suite`:

* **serial cold** -- ``jobs=1``, no store: the pre-scheduler baseline
  (every invocation recomputes everything in one process);
* **parallel cold** -- ``jobs=4`` over a fresh shared store: the
  two-stage schedule (warm-up characterizes each design once, then the
  experiments fan out over a process pool);
* **warm store** -- ``jobs=1`` re-run against the now-populated store:
  netlists, stress profiles, stream results and value planes all load
  from disk, so almost no simulation runs.

Byte-identity of the rendered outputs is asserted across all three
before any timing claim is recorded in
``benchmarks/results/BENCH_suite.json``.  Gates:

* warm re-run >= ``MIN_SPEEDUP_WARM`` x faster than serial cold
  (asserted always -- it is single-process and machine-independent);
* parallel cold >= ``MIN_SPEEDUP_JOBS`` x faster than serial cold,
  asserted only on machines with >= 4 CPUs (process fan-out cannot beat
  serial on a single core; the recorded numbers tell the story either
  way).
"""

import json
import os
import time

from repro.experiments import ArtifactStore, run_suite

RESULTS = os.path.join(os.path.dirname(__file__), "results")
#: Pattern-count multiplier for the suite runs (full registry, so the
#: bench stays in CI-friendly wall-clock).
SUITE_SCALE = 0.02
JOBS = 4
MIN_SPEEDUP_WARM = 5.0
MIN_SPEEDUP_JOBS = 2.0

_RECORD = {}


def test_suite_store_and_jobs_speedup(benchmark, tmp_path):
    store_dir = str(tmp_path / "store")
    cpus = os.cpu_count() or 1
    timings = {}

    t0 = time.perf_counter()
    serial = run_suite(scale=SUITE_SCALE)
    timings["serial"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_suite(
        scale=SUITE_SCALE, jobs=JOBS, store=ArtifactStore(store_dir)
    )
    timings["parallel"] = time.perf_counter() - t0

    def warm_run():
        t0 = time.perf_counter()
        out = run_suite(scale=SUITE_SCALE, store=ArtifactStore(store_dir))
        timings["warm"] = time.perf_counter() - t0
        return out

    warm = benchmark.pedantic(warm_run, rounds=1, iterations=1)

    # Byte-identity gates come before any timing claim.  ext_faults
    # reports how many stored sites it *resumed* vs simulated --
    # operationally interesting, numerically irrelevant -- so the warm
    # run is compared modulo that one accounting line.
    serial_rendered = serial.rendered_by_name()
    assert parallel.rendered_by_name() == serial_rendered
    warm_rendered = warm.rendered_by_name()
    assert set(warm_rendered) == set(serial_rendered)
    for name in serial_rendered:
        want, got = serial_rendered[name], warm_rendered[name]
        if name == "ext_faults":
            drop = lambda text: [
                line
                for line in text.splitlines()
                if not line.startswith("pruned ")
            ]
            want, got = drop(want), drop(got)
        assert got == want, "%s differs from the serial run" % name

    warm_speedup = timings["serial"] / timings["warm"]
    jobs_speedup = timings["serial"] / timings["parallel"]
    warm_totals = {"hits": 0, "misses": 0, "writes": 0}
    for stats in warm.store_counters.values():
        for key in warm_totals:
            warm_totals[key] += stats.get(key, 0)

    _RECORD["suite"] = {
        "experiment": "full %d-experiment suite, scale %.2f"
        % (len(serial.entries), SUITE_SCALE),
        "cpu_count": cpus,
        "jobs": JOBS,
        "rendered_identical": True,
        "serial_cold_seconds": round(timings["serial"], 3),
        "parallel_cold_seconds": round(timings["parallel"], 3),
        "warm_store_seconds": round(timings["warm"], 3),
        "jobs_speedup": round(jobs_speedup, 2),
        "warm_speedup": round(warm_speedup, 2),
        "warm_store_hits": warm_totals["hits"],
        "warm_store_misses": warm_totals["misses"],
    }
    _flush()
    print()
    print(
        "suite: serial %.2fs | jobs=%d %.2fs (%.2fx) | warm %.2fs (%.2fx)"
        " on %d cpu(s)"
        % (
            timings["serial"],
            JOBS,
            timings["parallel"],
            jobs_speedup,
            timings["warm"],
            warm_speedup,
            cpus,
        )
    )

    assert warm_totals["hits"] > 0, "warm run never touched the store"
    assert warm_totals["writes"] == 0, "warm run recomputed artifacts"
    assert warm_speedup >= MIN_SPEEDUP_WARM, (
        "warm-store re-run only %.2fx faster than serial cold"
        % warm_speedup
    )
    if cpus >= 4:
        assert jobs_speedup >= MIN_SPEEDUP_JOBS, (
            "jobs=%d only %.2fx faster than serial on %d cpus"
            % (JOBS, jobs_speedup, cpus)
        )


def _flush():
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "BENCH_suite.json"), "w") as fh:
        json.dump(_RECORD, fh, indent=2, sort_keys=True)
        fh.write("\n")
