"""The value pass and the power pass, byte for byte against a committed
reference.

``tests/data/value_plane_digests.json`` holds sha256 digests of the
three arrays :func:`repro.timing.replay.build_value_plane` records --
``may_packed``, ``aux_packed`` and the output words -- and of the
``switched_caps`` the power pass
(:func:`repro.timing.replay.build_switched_caps`) prices, for the 8x8
and 16x16 column- and row-bypass designs and the 16x16 array design,
in inertial and floating mode, built in one chunk and in 64-pattern
chunks, fault-free and under a stuck-at plus transient hook set.  The
scalar oracle checks switched capacitance only to a relative
tolerance, so this file is what pins its bytes.  The power pass
ignores the delay mode, so both modes pin the same ``switched_caps``
digest.
Regenerate the reference with::

    PYTHONPATH=src python tests/test_value_plane_golden.py --write

only when a change is *meant* to move the value plane's bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

from repro.arith import (
    array_multiplier,
    column_bypass_multiplier,
    row_bypass_multiplier,
)
from repro.faults.injector import build_fault_hooks
from repro.faults.models import StuckAtFault, TransientBitFlip
from repro.timing.engine import MODES, CompiledCircuit
from repro.timing.replay import build_switched_caps, build_value_plane

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "data",
    "value_plane_digests.json",
)

DESIGNS = {
    "cb8": lambda: column_bypass_multiplier(8),
    "rb8": lambda: row_bypass_multiplier(8),
    "cb16": lambda: column_bypass_multiplier(16),
    "rb16": lambda: row_bypass_multiplier(16),
    "am16": lambda: array_multiplier(16),
}
#: Not a multiple of 8 or of the chunk, so the last chunk is ragged.
NUM_PATTERNS = 203
CHUNKS = {"one": None, "c64": 64}


def _stimulus(netlist):
    rng = np.random.default_rng(28)
    return {
        name: rng.integers(0, 1 << port.width, NUM_PATTERNS, dtype=np.uint64)
        for name, port in netlist.input_ports.items()
    }


def _hooks(netlist):
    """A stuck-at on one cell output, a transient on another and one on
    a primary-input bit: every place the value pass applies hooks."""
    cells = netlist.cells
    return build_fault_hooks(netlist, [
        StuckAtFault(cells[len(cells) // 3].output, 1),
        TransientBitFlip(cells[2 * len(cells) // 3].output, 0.2, seed=5),
        TransientBitFlip(netlist.input_ports["md"].nets[1], 0.1, seed=6),
    ])


def _digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(("%s%r" % (array.dtype.str, array.shape)).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def plane_digests():
    """Case name -> the four array digests (a JSON-ready dict): three
    from the value plane, ``switched_caps`` from the power pass."""
    digests = {}
    for design, build in DESIGNS.items():
        netlist = build()
        stimulus = _stimulus(netlist)
        for mode in MODES:
            for hooked in (False, True):
                circuit = CompiledCircuit(
                    netlist,
                    mode=mode,
                    fault_hooks=_hooks(netlist) if hooked else None,
                )
                for chunk_name, chunk in CHUNKS.items():
                    plane = build_value_plane(
                        circuit, stimulus, chunk_size=chunk
                    )
                    caps = build_switched_caps(
                        circuit, stimulus, chunk_size=chunk
                    )
                    outputs = hashlib.sha256()
                    for name in sorted(plane.outputs):
                        outputs.update(name.encode())
                        outputs.update(_digest(plane.outputs[name]).encode())
                    case = "%s/%s/%s/%s" % (
                        design, mode, "hooked" if hooked else "free",
                        chunk_name,
                    )
                    digests[case] = {
                        "may_packed": _digest(plane.may_packed),
                        "aux_packed": _digest(plane.aux_packed),
                        "switched_caps": _digest(caps),
                        "outputs": outputs.hexdigest(),
                    }
    return digests


def render(digests):
    """Canonical JSON bytes, one case per line."""
    rows = ",\n".join(
        "%s: %s"
        % (json.dumps(case), json.dumps(digests[case], sort_keys=True))
        for case in sorted(digests)
    )
    return ("{\n" + rows + "\n}\n").encode()


def test_value_planes_match_golden_digests():
    digests = plane_digests()
    with open(GOLDEN, "rb") as fp:
        golden = json.load(fp)
    assert sorted(digests) == sorted(golden)
    wrong = [case for case in digests if digests[case] != golden[case]]
    assert not wrong, "value planes moved: %s" % wrong
    # Chunking never moves a byte: each case's two chunkings agree.
    for case, entry in digests.items():
        if case.endswith("/c64"):
            assert entry == digests[case[:-len("c64")] + "one"], case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_value_plane_golden.py --write")
    with open(GOLDEN, "wb") as fp:
        fp.write(render(plane_digests()))
