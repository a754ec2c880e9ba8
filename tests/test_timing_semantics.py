"""Hand-computed arrival-rule semantics, gate by gate.

These pin down the floating/inertial arrival rules of
:class:`repro.timing.CompiledCircuit` on minimal circuits where the
correct arrival can be computed by hand -- the precision complement to
the randomized cross-engine fuzzing.
"""

import numpy as np
import pytest

from repro.config import DEFAULT_TECHNOLOGY
from repro.nets.netlist import Netlist
from repro.timing import CompiledCircuit

UNIT = DEFAULT_TECHNOLOGY.time_unit_ns


def delay_of(name):
    from repro.nets.cells import STANDARD_LIBRARY

    return STANDARD_LIBRARY.get(name).delay_units * UNIT


def run_two(nl, **streams):
    """Run a 2-pattern stream; return delay of pattern 1."""
    circuit = CompiledCircuit(nl, mode="floating")
    result = circuit.run({k: np.array(v, dtype=np.uint64)
                          for k, v in streams.items()})
    return result


class TestControllingShortCircuit:
    def _and_with_slow_b(self):
        """AND(a, slow(b)) where b passes through 4 inverters."""
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        b, = nl.add_input_port("b", 1)
        slow = b
        for _ in range(4):
            slow = nl.inv(slow)
        nl.add_output_port("o", [nl.and2(a, slow)])
        return nl

    def test_early_controlling_zero_caps_arrival(self):
        nl = self._and_with_slow_b()
        # a: 1->0 (controlling, arrives at 0); b flips too (slow path).
        result = run_two(nl, a=[1, 0], b=[0, 1])
        assert result.delays[1] == pytest.approx(delay_of("AND2"))

    def test_non_controlling_waits_for_slow_path(self):
        nl = self._and_with_slow_b()
        # a stays 1 (non-controlling); output follows the slow chain.
        # (4 inverters leave b's polarity unchanged: out = a AND b.)
        result = run_two(nl, a=[1, 1], b=[0, 1])
        expected = 4 * delay_of("INV") + delay_of("AND2")
        assert result.delays[1] == pytest.approx(expected)

    def test_stable_controlling_is_quiet(self):
        nl = self._and_with_slow_b()
        # a stays 0: output pinned at 0 no matter what b does.
        result = run_two(nl, a=[0, 0], b=[0, 1])
        assert result.delays[1] == 0.0

    def test_or_controlling_one(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        b, = nl.add_input_port("b", 1)
        slow = nl.inv(nl.inv(b))
        nl.add_output_port("o", [nl.or2(a, slow)])
        result = run_two(nl, a=[0, 1], b=[1, 0])
        # a: 0->1 is controlling for OR: settles after one OR delay.
        assert result.delays[1] == pytest.approx(delay_of("OR2"))


class TestXorAlwaysWaits:
    def test_xor_takes_last_input(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        b, = nl.add_input_port("b", 1)
        slow = nl.inv(nl.inv(nl.inv(b)))
        nl.add_output_port("o", [nl.xor2(a, slow)])
        result = run_two(nl, a=[0, 1], b=[0, 1])
        expected = 3 * delay_of("INV") + delay_of("XOR2")
        assert result.delays[1] == pytest.approx(expected)


class TestMuxIsolation:
    def _mux(self):
        nl = Netlist("t")
        d0, = nl.add_input_port("d0", 1)
        d1, = nl.add_input_port("d1", 1)
        s, = nl.add_input_port("s", 1)
        slow = d1
        for _ in range(6):
            slow = nl.inv(slow)
        nl.add_output_port("o", [nl.mux2(d0, slow, s)])
        return nl

    def test_unselected_slow_input_invisible(self):
        nl = self._mux()
        # select stays 0: only d0 matters even while d1's chain wiggles.
        result = run_two(nl, d0=[0, 1], d1=[0, 1], s=[0, 0])
        assert result.delays[1] == pytest.approx(delay_of("MUX2"))

    def test_newly_selected_fast_branch(self):
        nl = self._mux()
        # select flips to 0 at t=0; d0 stable: output settles fast even
        # though the unselected d1 branch keeps switching.
        result = run_two(nl, d0=[1, 1], d1=[0, 1], s=[1, 0])
        assert result.delays[1] <= delay_of("MUX2") + 1e-12

    def test_selected_slow_branch_waits(self):
        nl = self._mux()
        result = run_two(nl, d0=[0, 0], d1=[0, 1], s=[1, 1])
        expected = 6 * delay_of("INV") + delay_of("MUX2")
        assert result.delays[1] == pytest.approx(expected)


class TestTribufQuiescence:
    def test_stably_disabled_is_quiet(self):
        nl = Netlist("t")
        d, = nl.add_input_port("d", 1)
        e, = nl.add_input_port("e", 1)
        out = nl.tribuf(d, e)
        # Mask downstream as the bypass discipline requires.
        nl.add_output_port("o", [nl.and2(out, e)])
        result = run_two(nl, d=[0, 1], e=[0, 0])
        assert result.delays[1] == 0.0

    def test_enabled_acts_as_wire(self):
        nl = Netlist("t")
        d, = nl.add_input_port("d", 1)
        e, = nl.add_input_port("e", 1)
        out = nl.tribuf(d, e)
        nl.add_output_port("o", [nl.buf(out)])
        result = run_two(nl, d=[0, 1], e=[1, 1])
        expected = delay_of("TRIBUF") + delay_of("BUF")
        assert result.delays[1] == pytest.approx(expected)


class TestInertialQuiet:
    def test_unchanged_output_reports_zero(self):
        """Inertial mode: a static-hazard output (value unchanged) is
        quiet; floating mode reports the hazard window."""
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        b, = nl.add_input_port("b", 1)
        slow = nl.inv(nl.inv(b))
        nl.add_output_port("o", [nl.and2(a, slow)])
        # a: 0->1, b: 1->0 -- output 0 before and after (hazard only).
        stimulus = {"a": np.array([0, 1], dtype=np.uint64),
                    "b": np.array([1, 0], dtype=np.uint64)}
        inertial = CompiledCircuit(nl, mode="inertial").run(stimulus)
        floating = CompiledCircuit(nl, mode="floating").run(stimulus)
        assert inertial.delays[1] == 0.0
        assert floating.delays[1] > 0.0
