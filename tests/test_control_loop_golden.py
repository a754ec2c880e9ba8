"""The AHL control loop, byte for byte against a committed reference.

``tests/data/control_loop_w8.json`` holds ``LatencyReport.to_dict()``
for a grid of 8x8 multiplier runs (column and row bypassing, adaptive
and traditional, the three recovery policies, sticky and non-sticky
indicator, fresh and 5-year aged) and for the adaptive-hold adder, all
on 1,050 operations so the last indicator window is ragged, plus one
strict run that raises.  The adder's cells are also checked against a
per-window reference loop written here.  Regenerate the reference with::

    PYTHONPATH=src python tests/test_control_loop_golden.py --write

only when a change is *meant* to move the control loop's output.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np

from repro.config import SimulationConfig
from repro.core import AgingAwareMultiplier
from repro.core.adder_architecture import AgingAwareAdder
from repro.core.aging_indicator import AgingIndicator
from repro.errors import RecoveryExhaustedError

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "control_loop_w8.json"
)

WIDTH = 8
NUM_OPS = 1050  # ten full indicator windows and a ragged 50-op one
YEARS = (0, 5)
#: Clock periods as fractions of the fresh critical path: a tight one
#: with deep retries (strict raises there, so it runs the two
#: non-raising policies) and one where the indicator flips and, when
#: not sticky, flips back.
MULTIPLIER_CLOCKS = (
    (0.3, ("degrade", "detect-only")),
    (0.55, ("degrade", "detect-only", "strict")),
)
ADDER_CLOCKS = (0.3, 0.4)
#: A strict run whose first fatal operation lies in window 2.
STRICT_FAILURE = {"kind": "column", "years": 0, "clock_fraction": 0.34}


def _operands(seed):
    rng = np.random.default_rng(seed)
    high = 1 << WIDTH
    return (
        rng.integers(0, high, NUM_OPS, dtype=np.uint64),
        rng.integers(0, high, NUM_OPS, dtype=np.uint64),
    )


def _with(arch, cycle_ns, adaptive, sticky):
    return dataclasses.replace(
        arch,
        cycle_ns=cycle_ns,
        adaptive=adaptive,
        config=SimulationConfig(indicator_sticky=sticky),
        name="",
    )


def control_loop_grid():
    """The reference document (a JSON-ready dict)."""
    md, mr = _operands(8)
    multiplier = []
    failure = None
    for kind in ("column", "row"):
        arch = AgingAwareMultiplier.build(
            WIDTH, kind, characterize_patterns=300
        )
        crit = arch.critical_path_ns()
        for years in YEARS:
            stream = arch.factory.stream_result(years, {"md": md, "mr": mr})
            for fraction, policies in MULTIPLIER_CLOCKS:
                for adaptive in (True, False):
                    for sticky in (True, False):
                        run = _with(arch, fraction * crit, adaptive, sticky)
                        for policy in policies:
                            result = run.run_patterns(
                                md, mr, years=years, stream=stream,
                                policy=policy,
                            )
                            multiplier.append({
                                "kind": kind,
                                "years": years,
                                "clock_fraction": fraction,
                                "adaptive": adaptive,
                                "sticky": sticky,
                                "policy": policy,
                                "report": result.report.to_dict(),
                            })
            if (
                kind == STRICT_FAILURE["kind"]
                and years == STRICT_FAILURE["years"]
            ):
                strict = arch.with_cycle(
                    STRICT_FAILURE["clock_fraction"] * crit
                )
                try:
                    strict.run_patterns(
                        md, mr, years=years, stream=stream, policy="strict"
                    )
                except RecoveryExhaustedError as exc:
                    failure = dict(
                        STRICT_FAILURE,
                        op_index=exc.op_index,
                        message=str(exc),
                    )
    adder_runs = []
    a, b = _operands(9)
    adder = AgingAwareAdder.build(WIDTH, characterize_patterns=300)
    crit = adder.critical_path_ns()
    for years in YEARS:
        stream = adder.factory.stream_result(
            years, {"a": a, "b": b}, collect_bit_arrivals=True
        )
        for fraction in ADDER_CLOCKS:
            for adaptive in (True, False):
                for sticky in (True, False):
                    run = _with(adder, fraction * crit, adaptive, sticky)
                    result = run.run_patterns(a, b, years=years, stream=stream)
                    adder_runs.append({
                        "years": years,
                        "clock_fraction": fraction,
                        "adaptive": adaptive,
                        "sticky": sticky,
                        "report": result.report.to_dict(),
                    })
    return {
        "multiplier": multiplier,
        "adder": adder_runs,
        "strict_failure": failure,
    }


def render(grid):
    """Canonical JSON bytes, one run per line."""
    parts = []
    for key in sorted(grid):
        value = grid[key]
        if isinstance(value, list):
            rows = ",\n".join(json.dumps(v, sort_keys=True) for v in value)
            body = "[\n" + rows + "\n]"
        else:
            body = json.dumps(value, sort_keys=True)
        parts.append("%s: %s" % (json.dumps(key), body))
    return ("{\n" + ",\n".join(parts) + "\n}\n").encode()


def test_control_loop_matches_golden_bytes():
    grid = control_loop_grid()
    with open(GOLDEN, "rb") as fp:
        assert render(grid) == fp.read()

    # The grid exercises the indicator, not just the fixed blocks.
    reports = [
        entry["report"] for entry in grid["multiplier"] + grid["adder"]
    ]
    traces = [r["indicator_trace"] for r in reports]
    assert any(not t[0] and any(t) for t in traces), "no mid-stream flip"
    non_sticky = [
        entry["report"]["indicator_trace"]
        for entry in grid["multiplier"] + grid["adder"]
        if not entry["sticky"]
    ]
    assert any(
        any(t[i] and not t[i + 1] for i in range(len(t) - 1))
        for t in non_sticky
    ), "no non-sticky run flips back"
    assert all(len(t) == 11 for t in traces)
    failure = grid["strict_failure"]
    assert failure is not None
    assert failure["op_index"] >= SimulationConfig().indicator_window
    assert "operation %d:" % failure["op_index"] in failure["message"]


def _adder_per_window(adder, stream):
    """One adder run, window by window: the indicator picks each
    window's hold output and the degrade charges are applied here."""
    config = adder.config
    cycle = adder.cycle_ns
    penalty = config.razor_penalty_cycles
    delays = stream.bit_arrivals["s"].max(axis=0)
    late = delays > cycle
    over = delays > 2.0 * cycle
    retry = penalty + np.minimum(
        np.ceil(delays / cycle), config.max_fallback_cycles
    )
    indicator = AgingIndicator(config)
    one_cycle, errors, trace = [], [], []
    total_cycles = 0.0
    for start in range(0, delays.size, config.indicator_window):
        window = slice(start, start + config.indicator_window)
        strict = adder.adaptive and indicator.aged
        flags = stream.outputs["hold_strict" if strict else "hold"][window] == 0
        err = (flags & late[window]) | (~flags & over[window])
        cycles = np.where(
            over[window],
            retry[window],
            np.where(flags, 1 + penalty * late[window], 2),
        )
        total_cycles += float(cycles.sum())
        indicator.record_window(flags.size, int(err.sum()))
        one_cycle.append(flags)
        errors.append(err)
        trace.append(indicator.aged)
    return (
        np.concatenate(one_cycle), np.concatenate(errors), total_cycles,
        trace,
    )


def test_adder_matches_per_window_reference():
    a, b = _operands(9)
    adder = AgingAwareAdder.build(WIDTH, characterize_patterns=300)
    crit = adder.critical_path_ns()
    switched = 0
    for years in YEARS:
        stream = adder.factory.stream_result(
            years, {"a": a, "b": b}, collect_bit_arrivals=True
        )
        for fraction in ADDER_CLOCKS:
            for adaptive in (True, False):
                for sticky in (True, False):
                    run = _with(adder, fraction * crit, adaptive, sticky)
                    result = run.run_patterns(a, b, years=years, stream=stream)
                    one_cycle, errors, total, trace = _adder_per_window(
                        run, stream
                    )
                    assert np.array_equal(result.one_cycle, one_cycle)
                    assert np.array_equal(result.errors, errors)
                    assert result.report.total_cycles == total
                    assert result.report.indicator_trace == trace
                    # Aged before the last window: a later one judged
                    # with the strict hold.
                    switched += adaptive and any(trace[:-1])
    assert switched, "no adaptive adder run uses the strict hold"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_control_loop_golden.py --write")
    with open(GOLDEN, "wb") as fp:
        fp.write(render(control_loop_grid()))
