"""The scalar oracle (``tests/oracle.py``) stays independent.

The equivalence suites trust the oracle only because it shares no code
with the engine it checks: it must not import :mod:`repro.timing`, and
the gate facts it derives from its own truth tables must be the
textbook ones.
"""

import ast

import oracle
from repro.nets.cells import STANDARD_LIBRARY


def test_oracle_imports_nothing_from_timing():
    with open(oracle.__file__) as fh:
        tree = ast.parse(fh.read())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the oracle"
            modules.append(node.module)
    assert modules
    assert not [m for m in modules if m.startswith("repro.timing")]


def test_truth_tables_cover_the_library():
    for cell_type in STANDARD_LIBRARY:
        table = oracle.TRUTH[cell_type.name]
        assert len(table) == 2 ** cell_type.num_inputs


def test_derived_gate_facts():
    assert oracle.CONTROLLING["AND3"] == (0, 0, 0)
    assert oracle.CONTROLLING["NOR2"] == (1, 1)
    for name in ("BUF", "INV", "XOR2", "XNOR2", "MUX2"):
        assert set(oracle.CONTROLLING[name]) == {None}
    # A MUX2 select is sensitized exactly when the data inputs differ.
    assert oracle.SENSITIZED["MUX2"][(0, 1, 0)] == (True, False, True)
    assert oracle.SENSITIZED["MUX2"][(1, 1, 1)] == (False, True, False)
    # Floating mode: a quiet controlling 0 pins an AND2 ...
    assert not oracle.MAY["AND2"][(0, 1), (False, True)]
    # ... a quiet non-controlling 1 does not.
    assert oracle.MAY["AND2"][(1, 1), (False, True)]
    # Equal quiet data inputs pin a MUX2 whose select moves.
    assert not oracle.MAY["MUX2"][(1, 1, 0), (False, False, True)]
