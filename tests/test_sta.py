"""Static timing analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arith import column_bypass_multiplier, row_bypass_multiplier
from repro.errors import SimulationError
from repro.nets.netlist import Netlist
from repro.timing import StaticTiming, critical_path
from repro.timing.sta import critical_delays
from repro.config import DEFAULT_TECHNOLOGY

from oracle import LongestPaths
from test_fuzz_engines import random_netlists


def diamond():
    """a -> INV -> AND <- (a -> INV -> INV): unbalanced reconvergence."""
    nl = Netlist("diamond")
    a, = nl.add_input_port("a", 1)
    short = nl.inv(a)
    long = nl.inv(nl.inv(nl.inv(a)))
    nl.add_output_port("o", [nl.and2(short, long)])
    return nl


class TestStaticTiming:
    def test_chain_arrival(self):
        nl = Netlist("chain")
        a, = nl.add_input_port("a", 1)
        x = nl.inv(nl.inv(a))
        nl.add_output_port("o", [x])
        sta = StaticTiming(nl)
        inv = nl.library.get("INV").delay_units * DEFAULT_TECHNOLOGY.time_unit_ns
        assert sta.critical_delay == pytest.approx(2 * inv)

    def test_worst_path_through_reconvergence(self):
        nl = diamond()
        sta = StaticTiming(nl)
        unit = DEFAULT_TECHNOLOGY.time_unit_ns
        inv = nl.library.get("INV").delay_units * unit
        and2 = nl.library.get("AND2").delay_units * unit
        assert sta.critical_delay == pytest.approx(3 * inv + and2)

    def test_critical_path_cells(self):
        nl = diamond()
        path = StaticTiming(nl).critical_path()
        # 3 inverters + the AND gate, input side first.
        assert [cell.cell_type.name for cell in path] == [
            "INV", "INV", "INV", "AND2",
        ]

    def test_primary_input_arrival_is_zero(self):
        nl = diamond()
        sta = StaticTiming(nl)
        assert sta.arrival(nl.input_ports["a"].nets[0]) == 0.0

    def test_delay_scale_applies(self):
        nl = diamond()
        base = StaticTiming(nl).critical_delay
        scaled = StaticTiming(
            nl, delay_scale=np.full(len(nl.cells), 2.0)
        ).critical_delay
        assert scaled == pytest.approx(2 * base)

    def test_bad_scale_shape_rejected(self):
        with pytest.raises(SimulationError):
            StaticTiming(diamond(), delay_scale=np.ones(1))

    def test_convenience_wrapper(self):
        delay, path = critical_path(diamond())
        assert delay == StaticTiming(diamond()).critical_delay
        assert path[-1].cell_type.name == "AND2"

    def test_sta_upper_bounds_observed_delays(self, cb16, cb16_circuit, stream16):
        md, mr = stream16
        result = cb16_circuit.run({"md": md[:500], "mr": mr[:500]})
        assert result.max_delay <= StaticTiming(cb16).critical_delay + 1e-9


def _as_bytes(values):
    return np.array(values, dtype=float).tobytes()


def check_against_oracle(nl, scales):
    """Every STA entry point on ``(k, num_cells)`` corners against the
    scalar longest-path oracle, byte for byte."""
    refs = [LongestPaths(nl, scale=row) for row in scales]
    got = critical_delays(nl, delay_scales=scales)
    assert got.tobytes() == _as_bytes([r.critical_delay() for r in refs])
    for row, ref in zip(scales, refs):
        sta = StaticTiming(nl, delay_scale=row)
        nets = range(nl.num_nets)
        assert _as_bytes([sta.arrival(n) for n in nets]) == _as_bytes(
            [ref.arrival(n) for n in nets]
        )
        assert _as_bytes([sta.critical_delay]) == _as_bytes(
            [ref.critical_delay()]
        )
        assert [c.index for c in sta.critical_path()] == ref.critical_path()


def _scales(num_cells, k, seed):
    return np.random.default_rng(seed).uniform(1.0, 1.5, (k, num_cells))


class TestOracle:
    """The one levelized STA pass against ``tests/oracle.py``, which
    walks the netlist one cell at a time in its own topological order."""

    @settings(max_examples=60, deadline=None)
    @given(random_netlists(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_random_netlists(self, case, k, seed):
        nl, _ = case
        check_against_oracle(nl, _scales(len(nl.cells), k, seed))
        check_against_oracle(nl, np.ones((1, len(nl.cells))))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize(
        "build", [column_bypass_multiplier, row_bypass_multiplier]
    )
    def test_bypass_multipliers(self, build, width, k):
        nl = build(width)
        check_against_oracle(nl, _scales(len(nl.cells), k, width + k))

    def test_unscaled_defaults(self):
        nl = column_bypass_multiplier(8)
        ref = LongestPaths(nl)
        assert _as_bytes([StaticTiming(nl).critical_delay]) == _as_bytes(
            [ref.critical_delay()]
        )
        assert critical_delays(nl).tobytes() == _as_bytes(
            [ref.critical_delay()]
        )
