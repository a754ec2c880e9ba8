"""Scalar timing oracle: an independent reference for :mod:`repro.timing`.

It imports nothing from that package and shares no gate rules with it.
It walks the netlist in its own topological order and evaluates every
cell from its own truth table in plain Python ints and floats:

* **values**: each net's settled stream is one Python int (bit ``t`` is
  pattern ``t``), and a cell's output is the OR of its truth table's
  true minterms over its input ints; a fault hook rewrites its net one
  pattern at a time, with that pattern's global index (-1 for the
  settling pattern);
* **timing**: one pattern and one cell at a time.  Controlling values
  (the one pin value that fixes the output whatever the other pins do),
  sensitized pins (a pin whose flip alone flips the output) and the
  floating-mode may-change flag (the quiet pins alone do not fix the
  output) all come from the truth table.  Two model decisions are not
  truth-table facts and are written out as DESIGN.md section 5 states
  them: a settled MUX2 select isolates the unselected data input, and a
  stably disabled TRIBUF is quiet, passes no data transitions and turns
  half of each enable transition into an output event.

Per-cell delays are ``delay_units * time_unit_ns * scale[index]`` in
that order, so arrivals and path delays match the engine byte for byte;
only the switched-capacitance sum runs in a different float
association (cell by cell here, bucket by bucket in the engine).

:class:`LongestPaths` is the static-timing reference: worst-case
arrivals one cell at a time in the same topological walk, the critical
delay and the critical path.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict

import numpy as np

from repro.config import DEFAULT_TECHNOLOGY
from repro.nets.netlist import CONST1

_FUNCTIONS = {
    "BUF": lambda a: a,
    "INV": lambda a: 1 - a,
    "AND2": lambda a, b: a & b,
    "OR2": lambda a, b: a | b,
    "NAND2": lambda a, b: 1 - (a & b),
    "NOR2": lambda a, b: 1 - (a | b),
    "XOR2": lambda a, b: a ^ b,
    "XNOR2": lambda a, b: 1 - (a ^ b),
    "MUX2": lambda d0, d1, s: d1 if s else d0,
    "TRIBUF": lambda d, e: d,  # transparent; the hold is a power rule
    "AND3": lambda a, b, c: a & b & c,
    "OR3": lambda a, b, c: a | b | c,
}

#: Cell-type name -> {input bits: output bit}.
TRUTH = {
    name: {
        bits: fn(*bits)
        for bits in itertools.product((0, 1), repeat=fn.__code__.co_argcount)
    }
    for name, fn in _FUNCTIONS.items()
}


def _flip(bits, pin):
    return bits[:pin] + (1 - bits[pin],) + bits[pin + 1:]


def _controlling(table, pin):
    """The one value of ``pin`` that fixes the output, or None."""
    fixing = [
        value
        for value in (0, 1)
        if len({out for bits, out in table.items() if bits[pin] == value})
        == 1
    ]
    return fixing[0] if len(fixing) == 1 else None


#: Cell-type name -> per-pin controlling value (None: no such value).
CONTROLLING = {
    name: tuple(_controlling(table, pin)
                for pin in range(len(next(iter(table)))))
    for name, table in TRUTH.items()
}

#: Cell-type name -> {input bits: per-pin "a flip of this pin alone
#: flips the output"}.
SENSITIZED = {
    name: {
        bits: tuple(table[_flip(bits, pin)] != out
                    for pin in range(len(bits)))
        for bits, out in table.items()
    }
    for name, table in TRUTH.items()
}


def _may_change(name, bits, mays):
    """Floating mode: the output may change unless the quiet pins alone
    fix it, enumerating the moving pins with the quiet ones held."""
    if name == "TRIBUF":
        return mays[1] or (bits[1] == 1 and mays[0])
    moving = [pin for pin, may in enumerate(mays) if may]
    outs = set()
    for values in itertools.product((0, 1), repeat=len(moving)):
        trial = list(bits)
        for pin, value in zip(moving, values):
            trial[pin] = value
        outs.add(TRUTH[name][tuple(trial)])
    return len(outs) > 1


#: Cell-type name -> {(input bits, input may flags): output may flag}.
MAY = {
    name: {
        (bits, mays): _may_change(name, bits, mays)
        for bits in table
        for mays in itertools.product((False, True), repeat=len(bits))
    }
    for name, table in TRUTH.items()
}


def topological_order(netlist):
    """Cells ordered drivers-first: an iterative depth-first post-order
    over each cell's input drivers."""
    driver = {cell.output: cell for cell in netlist.cells}
    order, seen = [], set()
    for root in netlist.cells:
        stack = [(root, False)]
        while stack:
            cell, expanded = stack.pop()
            if expanded:
                order.append(cell)
                continue
            if cell.index in seen:
                continue
            seen.add(cell.index)
            stack.append((cell, True))
            for net in cell.inputs:
                producer = driver.get(net)
                if producer is not None and producer.index not in seen:
                    stack.append((producer, False))
    return order


class LongestPaths:
    """Scalar static timing: every input may be late and every path
    sensitized, so a cell's output arrives at its latest input arrival
    (0 for primary inputs and rails) plus its delay."""

    def __init__(self, netlist, technology=DEFAULT_TECHNOLOGY, scale=None):
        self.netlist = netlist
        unit = technology.time_unit_ns
        self.arrivals = {}
        self.driver = {}
        for cell in topological_order(netlist):
            factor = 1.0 if scale is None else float(scale[cell.index])
            latest = 0.0
            for net in cell.inputs:
                latest = max(latest, self.arrival(net))
            self.arrivals[cell.output] = (
                latest + cell.cell_type.delay_units * unit * factor
            )
            self.driver[cell.output] = cell

    def arrival(self, net):
        return self.arrivals.get(net, 0.0)

    def output_nets(self):
        return [
            net
            for port in self.netlist.output_ports.values()
            for net in port.nets
        ]

    def critical_delay(self):
        return max([0.0] + [self.arrival(n) for n in self.output_nets()])

    def critical_path(self):
        """Cell indices from the first output net with the latest
        arrival back through each cell's first latest-arriving input,
        stopping at an input that arrives at 0; input side first."""
        nets = self.output_nets()
        arrivals = [self.arrival(net) for net in nets]
        net = nets[arrivals.index(max(arrivals))]
        path = []
        while net in self.driver:
            cell = self.driver[net]
            path.append(cell.index)
            inputs = [self.arrival(pin) for pin in cell.inputs]
            latest = max(inputs)
            if latest == 0.0:
                break
            net = cell.inputs[inputs.index(latest)]
        return path[::-1]


@dataclasses.dataclass
class OracleRun:
    """Per-pattern results, shaped like the engine's ``StreamResult``."""

    outputs: Dict[str, np.ndarray]
    delays: np.ndarray
    switched_caps: np.ndarray
    bit_arrivals: Dict[str, np.ndarray]
    num_patterns: int


class Oracle:
    """Scalar reference simulator of one netlist.

    ``fault_hooks`` maps net ids to the engine's value-fault hooks
    (pure functions of ``(stream, start_index)``).
    """

    def __init__(self, netlist, technology=DEFAULT_TECHNOLOGY,
                 mode="inertial", fault_hooks=None):
        self.netlist = netlist
        self.technology = technology
        self.mode = mode
        self.hooks = dict(fault_hooks or {})
        self.order = topological_order(netlist)

    def settle(self, stimulus, initial=None) -> np.ndarray:
        """The ``(num_nets, n + 1)`` uint8 settled-value matrix; column 0
        is the settling pattern (``initial``, else pattern 0)."""
        netlist = self.netlist
        words = {}
        for name in netlist.input_ports:
            seq = [int(word) for word in stimulus[name]]
            words[name] = [int((initial or {}).get(name, seq[0]))] + seq
        count = len(next(iter(words.values())))
        ones = (1 << count) - 1
        streams = [0] * netlist.num_nets
        streams[CONST1] = ones

        def drive(net, stream):
            if net in self.hooks:
                bits = [(stream >> t) & 1 for t in range(count)]
                stream = sum(
                    int(self.hooks[net](
                        np.array([bit], dtype=np.uint8), t - 1)[0]) << t
                    for t, bit in enumerate(bits)
                )
            streams[net] = stream

        for name, port in netlist.input_ports.items():
            for lane, net in enumerate(port.nets):
                drive(net, sum(((word >> lane) & 1) << t
                               for t, word in enumerate(words[name])))
        for cell in self.order:
            ins = [streams[net] for net in cell.inputs]
            out = 0
            for bits, value in TRUTH[cell.cell_type.name].items():
                if value:
                    term = ones
                    for stream, bit in zip(ins, bits):
                        term &= stream if bit else ~stream
                    out |= term
            drive(cell.output, out & ones)
        nbytes = (count + 7) // 8
        return np.array([
            np.unpackbits(
                np.frombuffer(stream.to_bytes(nbytes, "little"), np.uint8),
                count=count, bitorder="little",
            )
            for stream in streams
        ])

    def run(self, stimulus, delay_scale=None, initial=None) -> OracleRun:
        netlist = self.netlist
        columns = self.settle(stimulus, initial).T.tolist()
        n = len(columns) - 1
        scale = (np.ones(len(netlist.cells)) if delay_scale is None
                 else np.asarray(delay_scale, dtype=float))
        unit = self.technology.time_unit_ns
        damping = self.technology.glitch_damping
        floating = self.mode == "floating"
        cells = [
            (c.cell_type.name, c.inputs, c.output,
             c.cell_type.delay_units * unit * float(scale[c.index]),
             c.cell_type.load_caps, CONTROLLING[c.cell_type.name],
             SENSITIZED[c.cell_type.name], MAY[c.cell_type.name])
            for c in self.order
        ]
        input_nets = [net for port in netlist.input_ports.values()
                      for net in port.nets]
        ports = netlist.output_ports
        delays, caps = np.zeros(n), np.zeros(n)
        bit_arrivals = {name: np.zeros((port.width, n))
                        for name, port in ports.items()}
        for t in range(1, n + 1):
            val, prev = columns[t], columns[t - 1]
            may = [False] * netlist.num_nets
            arr = [0.0] * netlist.num_nets
            trans = [0.0] * netlist.num_nets
            for net in input_nets:
                may[net] = val[net] != prev[net]
                trans[net] = float(may[net])
            switched = 0.0
            for name, pins, out, delay, cap, ctrl, sens, may_of in cells:
                bits = tuple([val[p] for p in pins])
                changed = val[out] != prev[out]
                if floating:
                    m = may_of[bits, tuple([may[p] for p in pins])]
                    may[out] = m
                else:
                    m = changed
                if m:  # a quiet output keeps arrival 0.0
                    arrs = [arr[p] for p in pins]
                    if name == "MUX2":
                        base = max(arrs[2], arrs[bits[2]])
                    elif name == "TRIBUF":
                        base = max(arrs[1], arrs[0] if bits[1] else 0.0)
                    else:
                        hits = [a for a, b, c in zip(arrs, bits, ctrl)
                                if b == c]
                        base = min(hits) if hits else max(arrs)
                    arr[out] = base + delay
                ins = [trans[p] for p in pins]
                if name == "TRIBUF":
                    tr = ins[0] * (bits[1] != 0) + ins[1] * 0.5
                else:
                    hit = sens[bits]
                    tr = ins[0] * hit[0]
                    for pin in range(1, len(pins)):
                        tr = tr + ins[pin] * hit[pin]
                trans[out] = max(tr * damping, 1.0 if changed else 0.0)
                switched += cap * trans[out]
            caps[t - 1] = switched
            for name, port in ports.items():
                for bit, net in enumerate(port.nets):
                    bit_arrivals[name][bit, t - 1] = arr[net]
                    delays[t - 1] = max(delays[t - 1], arr[net])
        outputs = {
            name: np.array(
                [sum(column[net] << bit for bit, net in enumerate(port.nets))
                 for column in columns[1:]],
                dtype=np.uint64,
            )
            for name, port in ports.items()
        }
        return OracleRun(outputs, delays, caps, bit_arrivals, n)

    def replay(self, stimulus, scales):
        """Per-corner ``(k, n)`` delays and port -> ``(width, k, n)`` bit
        arrivals: one full run per row of ``scales``."""
        runs = [self.run(stimulus, row) for row in np.atleast_2d(scales)]
        delays = np.stack([r.delays for r in runs])
        bit_arrivals = {
            name: np.stack([r.bit_arrivals[name] for r in runs], axis=1)
            for name in runs[0].bit_arrivals
        }
        return delays, bit_arrivals

    def signal_probability(self, stimulus) -> np.ndarray:
        """Per-net share of ones over the stream, settling pattern
        included."""
        values = self.settle(stimulus)
        return np.array(
            [sum(row) / values.shape[1] for row in values.tolist()]
        )

    def toggle_counts(self, stimulus) -> np.ndarray:
        """Functional toggles; a bypass-group cell holds its value while
        its group enable is low, and before the first enabled pattern it
        already holds that pattern's value."""
        values = self.settle(stimulus).tolist()
        counts = [
            float(sum(a != b for a, b in zip(row, row[1:])))
            for row in values
        ]
        enables = self.netlist.group_enables
        for cell in self.netlist.cells:
            if cell.group not in enables:
                continue
            held, count = None, 0
            for value, enabled in zip(values[cell.output],
                                      values[enables[cell.group]]):
                if enabled:
                    count += held is not None and value != held
                    held = value
            counts[cell.output] = float(count)
        return np.array(counts)
