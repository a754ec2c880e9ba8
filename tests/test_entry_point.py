"""``python -m repro <command>`` is the package's only entry point."""

from __future__ import annotations

import pathlib
import re

import pytest

import repro
from repro.__main__ import COMMANDS, main

PACKAGE = pathlib.Path(repro.__file__).resolve().parent
MAIN_GUARD = re.compile(r"""^if __name__ == ['"]__main__['"]""", re.M)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_names_unified_entry_point(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: python -m repro %s" % command)


def test_only_repro_main_is_executable():
    modules = sorted(PACKAGE.rglob("*.py"))
    guarded = [
        path.relative_to(PACKAGE).as_posix()
        for path in modules
        if MAIN_GUARD.search(path.read_text(encoding="utf-8"))
    ]
    mains = [
        path.relative_to(PACKAGE).as_posix()
        for path in modules
        if path.name == "__main__.py"
    ]
    assert guarded == ["__main__.py"]
    assert mains == ["__main__.py"]


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--years", "0,x"],
        ["service", "query", "--years", "0,x"],
        ["sweep", "--years", "0,x"],
    ],
    ids=["mc", "service-query", "sweep"],
)
def test_malformed_float_list_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert (
        "argument --years: must be a comma-separated float list,"
        " got '0,x'" in capsys.readouterr().err
    )
