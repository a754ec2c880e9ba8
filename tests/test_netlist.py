"""Netlist builder, validation and levelization."""

import pytest

from repro.errors import CombinationalLoopError, NetlistError
from repro.nets.netlist import (
    CONST0,
    CONST1,
    Netlist,
    bits_to_int,
    int_to_bits,
)


def half_adder():
    nl = Netlist("ha")
    a, = nl.add_input_port("a", 1)
    b, = nl.add_input_port("b", 1)
    nl.add_output_port("sum", [nl.xor2(a, b)])
    nl.add_output_port("carry", [nl.and2(a, b)])
    return nl


class TestNets:
    def test_constants_reserved(self):
        nl = Netlist("t")
        assert nl.const0 == CONST0 == 0
        assert nl.const1 == CONST1 == 1
        assert nl.num_nets == 2

    def test_new_net_allocates_sequentially(self):
        nl = Netlist("t")
        first = nl.new_net("x")
        second = nl.new_net()
        assert second == first + 1
        assert nl.net_name(first) == "x"
        assert nl.net_name(second) == "n%d" % second

    def test_new_nets_bulk(self):
        nl = Netlist("t")
        nets = nl.new_nets(4, prefix="w")
        assert len(nets) == 4
        assert nl.net_name(nets[2]) == "w2"

    def test_new_nets_negative_rejected(self):
        with pytest.raises(NetlistError):
            Netlist("t").new_nets(-1)

    def test_bad_net_id_rejected(self):
        nl = Netlist("t")
        with pytest.raises(NetlistError):
            nl.net_name(99)
        with pytest.raises(NetlistError):
            nl.net_name(True)


class TestPorts:
    def test_input_port_nets_lsb_first(self):
        nl = Netlist("t")
        nets = nl.add_input_port("a", 3)
        assert len(nets) == 3
        assert nl.net_name(nets[0]) == "a[0]"
        assert all(nl.is_primary_input(n) for n in nets)

    def test_duplicate_port_rejected(self):
        nl = Netlist("t")
        nl.add_input_port("a", 1)
        with pytest.raises(NetlistError):
            nl.add_input_port("a", 2)
        with pytest.raises(NetlistError):
            nl.add_output_port("a", [nl.const0])

    def test_zero_width_port_rejected(self):
        with pytest.raises(NetlistError):
            Netlist("t").add_input_port("a", 0)

    def test_empty_output_port_rejected(self):
        with pytest.raises(NetlistError):
            Netlist("t").add_output_port("p", [])

    def test_port_width(self):
        nl = half_adder()
        assert nl.input_ports["a"].width == 1
        assert nl.output_ports["sum"].width == 1


class TestAddCell:
    def test_returns_output_net_and_registers_driver(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        out = nl.inv(a)
        cell = nl.driver_of(out)
        assert cell is not None
        assert cell.cell_type.name == "INV"
        assert cell.inputs == (a,)

    def test_wrong_pin_count_rejected(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        with pytest.raises(NetlistError):
            nl.add_cell("AND2", [a])

    def test_double_drive_rejected(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        out = nl.inv(a)
        with pytest.raises(NetlistError):
            nl.add_cell("BUF", [a], output=out)

    def test_driving_constant_rejected(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        with pytest.raises(NetlistError):
            nl.add_cell("INV", [a], output=CONST0)

    def test_driving_primary_input_rejected(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        b, = nl.add_input_port("b", 1)
        with pytest.raises(NetlistError):
            nl.add_cell("INV", [a], output=b)

    def test_group_tagging(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        nl.inv(a, group="g1")
        nl.buf(a, group="g1")
        nl.inv(a)
        assert len(nl.cells_in_group("g1")) == 2

    def test_group_enable_registration(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        nl.set_group_enable("g", a)
        assert nl.group_enables["g"] == a
        with pytest.raises(NetlistError):
            nl.set_group_enable("g", a)


class TestLevelize:
    def test_topological_order(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        x = nl.inv(a)
        y = nl.inv(x)
        nl.add_output_port("o", [y])
        order = nl.levelize()
        positions = {cell.output: k for k, cell in enumerate(order)}
        assert positions[x] < positions[y]

    def test_loop_detection(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        loop_net = nl.new_net()
        nl.add_cell("AND2", [a, loop_net])
        # Close the loop: drive loop_net from something downstream.
        first_out = nl.cells[0].output
        nl.add_cell("INV", [first_out], output=loop_net)
        with pytest.raises(CombinationalLoopError) as info:
            nl.levelize()
        assert len(info.value.cycle_members) == 2

    def test_levelize_cached_and_invalidated(self):
        nl = half_adder()
        first = nl.levelize()
        assert nl.levelize() is first
        a = nl.input_ports["a"].nets[0]
        nl.inv(a)
        assert nl.levelize() is not first

    def test_max_logic_depth(self):
        nl = Netlist("t")
        a, = nl.add_input_port("a", 1)
        x = a
        for _ in range(5):
            x = nl.inv(x)
        nl.add_output_port("o", [x])
        assert nl.max_logic_depth() == 5

    def test_cell_levels(self):
        nl = Netlist("t")
        a, b = nl.add_input_port("ab", 2)
        x = nl.inv(a)              # level 0
        y = nl.and2(x, b)          # level 1
        z = nl.xor2(nl.inv(x), y)  # INV level 1, XOR2 level 2
        nl.add_output_port("o", [z, nl.buf(nl.const1)])  # BUF level 0
        assert nl.cell_levels().tolist() == [0, 1, 1, 2, 0]
        assert not nl.cell_levels().flags.writeable
        assert nl.max_logic_depth() == 3

    def test_cell_columns_follow_growth_and_mutation(self):
        from repro.nets import apply_mutations, retype
        from repro.nets.area import transistor_count

        nl = half_adder()
        lib = nl.library
        first = nl.cell_columns()
        assert nl.cell_columns() is first
        assert first.transistors.tolist() == [
            lib.get("XOR2").transistors, lib.get("AND2").transistors
        ]
        assert not first.delay_units.flags.writeable
        nl.inv(nl.input_ports["a"].nets[0])
        grown = nl.cell_columns()
        assert grown.pmos_fraction.tolist()[-1] == lib.get("INV").pmos_fraction
        assert transistor_count(nl) == sum(
            c.cell_type.transistors for c in nl.cells
        )
        child = apply_mutations(nl, [retype(1, "OR2")])
        or2 = lib.get("OR2").transistors
        assert child.cell_columns().transistors[1] == or2
        assert nl.cell_columns() is grown

    def test_pickle_without_levels_relevelizes(self):
        # A store written before levels were kept holds validated
        # netlists with a cached order but no ``_levels``.
        import pickle

        import numpy as np

        from repro.arith import column_bypass_multiplier
        from repro.timing.engine import CompiledCircuit
        from repro.timing.sta import StaticTiming, critical_delays

        fresh = column_bypass_multiplier(8)
        fresh.validate()
        timing = StaticTiming(fresh)
        stimulus = {"md": [0, 255, 17, 200], "mr": [0, 255, 99, 3]}
        expected = CompiledCircuit(fresh).run(stimulus)

        old = pickle.loads(pickle.dumps(fresh))
        for attr in ("_levels", "_columns", "_sta_groups"):
            old.__dict__.pop(attr, None)
        assert old._levelized is not None
        assert old.cell_levels().tolist() == fresh.cell_levels().tolist()
        assert old.max_logic_depth() == fresh.max_logic_depth()
        assert StaticTiming(old).critical_delay == timing.critical_delay
        assert critical_delays(old).tolist() == [timing.critical_delay]
        got = CompiledCircuit(old).run(stimulus)
        assert np.array_equal(got.outputs["p"], expected.outputs["p"])
        assert np.array_equal(got.delays, expected.delays)


class TestValidate:
    def test_undriven_output_rejected(self):
        nl = Netlist("t")
        nl.add_input_port("a", 1)
        dangling = nl.new_net()
        nl.add_output_port("o", [dangling])
        with pytest.raises(NetlistError):
            nl.validate()

    def test_undriven_cell_input_rejected(self):
        nl = Netlist("t")
        dangling = nl.new_net()
        out = nl.inv(dangling)
        nl.add_output_port("o", [out])
        with pytest.raises(NetlistError):
            nl.validate()

    def test_constant_outputs_allowed(self):
        nl = Netlist("t")
        nl.add_input_port("a", 1)
        nl.add_output_port("zero", [nl.const0])
        nl.validate()

    def test_stats(self):
        nl = half_adder()
        stats = nl.stats()
        assert stats["XOR2"] == 1
        assert stats["AND2"] == 1
        assert stats["cells"] == 2

    def test_repr(self):
        assert "ha" in repr(half_adder())


class TestBitHelpers:
    def test_roundtrip(self):
        for value in (0, 1, 5, 255):
            assert bits_to_int(int_to_bits(value, 8)) == value

    def test_lsb_first(self):
        assert int_to_bits(1, 3) == [1, 0, 0]
        assert bits_to_int([0, 1]) == 2

    def test_value_too_wide_rejected(self):
        with pytest.raises(NetlistError):
            int_to_bits(8, 3)

    def test_negative_rejected(self):
        with pytest.raises(NetlistError):
            int_to_bits(-1, 3)

    def test_bad_bit_rejected(self):
        with pytest.raises(NetlistError):
            bits_to_int([0, 2])
