"""Fault model library: stuck-at, transient bit-flip and delay faults.

Aging validation flows (Juracy et al.'s survey of aging monitors; the
NBTI fault-injection literature) exercise a countermeasure against three
fault classes, all modelled here against the gate-level netlists:

* :class:`StuckAtFault` -- a net permanently tied to 0/1 (hard defect,
  end-of-life oxide breakdown).  The stuck net is electrically quiet, so
  it changes *values* but produces no late arrivals of its own.
* :class:`TransientBitFlip` -- a single-event upset (SEU): the net's
  settled value flips on a random subset of patterns.  Flips are drawn
  from a counter-based hash of ``(seed, net, pattern index)``, so a
  stream is bit-reproducible regardless of engine chunking.
* :class:`DelayFault` -- a localized aging hot-spot: one cell gets a
  fixed extra propagation delay on top of the smooth BTI/EM curve.  This
  is the fault class Razor is designed to catch.

Value faults enter the simulator through
:attr:`repro.timing.engine.CompiledCircuit` fault hooks; delay faults
enter through the per-cell delay-scale vector.  Use
:func:`repro.faults.injector.compile_with_faults` to apply a mix of all
three to a netlist.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from ..errors import FaultError
from ..nets.netlist import CONST0, CONST1, Netlist

#: splitmix64 multiplier constants (stateless counter-based hashing).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def _hash_uniform(seed: int, lane: int, indices: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in [0, 1) per (seed, lane, index).

    A splitmix64 finalizer over a per-(seed, lane) key -- stateless, so
    any slice of the pattern axis hashes identically no matter how the
    stream is chunked.
    """
    key = ((seed * _MIX1 + lane * _MIX2 + _GAMMA) ^ (lane << 17)) & _MASK64
    x = indices.astype(np.uint64) * np.uint64(_GAMMA)
    x ^= np.uint64(key)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x.astype(np.float64) / float(1 << 64)


@dataclasses.dataclass(frozen=True)
class FaultModel:
    """Base class of every injectable fault.

    Subclasses are frozen dataclasses, so a fault doubles as a hashable
    campaign key.  ``validate(netlist)`` checks the target exists;
    ``value_hook()`` returns the engine hook for value faults (None for
    pure delay faults); ``describe()`` is the human-readable site label.
    """

    def validate(self, netlist: Netlist) -> None:
        raise NotImplementedError

    def value_hook(self) -> Optional[Callable]:
        return None

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def describe(self, netlist: Optional[Netlist] = None) -> str:
        raise NotImplementedError

    def site_id(self) -> str:
        """Canonical, process-stable identifier of this fault site.

        Unlike :meth:`describe` (which uses human-readable net names)
        the site id is derived purely from the fault's own parameters,
        so it is identical across processes and interpreter runs -- it
        keys the campaign's ``site`` artifacts in the store.
        """
        raise NotImplementedError

    def cone_root(self, netlist: Netlist) -> int:
        """The net whose forward logic cone this fault can corrupt.

        Value faults corrupt their target net; a delay fault can only
        move arrivals downstream of its cell's output.  Campaigns use
        this with :meth:`repro.timing.engine.CompiledCircuit
        .output_reach_mask` to prune sites that cannot reach any
        observed product bit.
        """
        raise NotImplementedError


def _check_net(net: int, netlist: Optional[Netlist] = None) -> None:
    if not isinstance(net, int) or isinstance(net, bool):
        raise FaultError("fault net id must be an int, got %r" % (net,))
    if net in (CONST0, CONST1):
        raise FaultError("cannot fault the constant rails")
    if net < 0:
        raise FaultError("fault net id must be non-negative, got %d" % net)
    if netlist is not None and net >= netlist.num_nets:
        raise FaultError(
            "fault net %d out of range (netlist has %d nets)"
            % (net, netlist.num_nets)
        )


@dataclasses.dataclass(frozen=True)
class StuckAtFault(FaultModel):
    """Net ``net`` permanently reads ``value`` (0 or 1).

    The hook forces the whole stream -- including the settling pattern --
    so the fault is present from before the first operation and the net
    never transitions (a stuck node is electrically quiet).
    """

    net: int
    value: int

    def __post_init__(self):
        _check_net(self.net)
        if self.value not in (0, 1):
            raise FaultError(
                "stuck-at value must be 0 or 1, got %r" % (self.value,)
            )

    def validate(self, netlist: Netlist) -> None:
        _check_net(self.net, netlist)

    def value_hook(self):
        value = np.uint8(self.value)

        def hook(values: np.ndarray, start_index: int) -> np.ndarray:
            return np.full_like(values, value)

        return hook

    @property
    def kind(self) -> str:
        return "stuck-at-%d" % self.value

    def describe(self, netlist: Optional[Netlist] = None) -> str:
        where = netlist.net_name(self.net) if netlist else "n%d" % self.net
        return "sa%d@%s" % (self.value, where)

    def site_id(self) -> str:
        return "sa%d:n%d" % (self.value, self.net)

    def cone_root(self, netlist: Netlist) -> int:
        return self.net


@dataclasses.dataclass(frozen=True)
class TransientBitFlip(FaultModel):
    """SEU: net ``net`` flips on a random ``rate`` fraction of patterns.

    Flip decisions are a pure function of ``(seed, net, pattern index)``,
    so results are chunking-independent and reproducible.  The settling
    pattern (index -1) is never flipped.  A flip lands at the start of
    the cycle (the upset happens while the combinational logic is quiet),
    so -- like real SEUs -- it corrupts values without a late arrival and
    is invisible to Razor's timing comparison unless downstream logic is
    simultaneously slow.
    """

    net: int
    rate: float
    seed: int = 0

    def __post_init__(self):
        _check_net(self.net)
        if not 0.0 <= self.rate <= 1.0:
            raise FaultError(
                "transient flip rate must lie in [0, 1], got %r"
                % (self.rate,)
            )

    def validate(self, netlist: Netlist) -> None:
        _check_net(self.net, netlist)

    def value_hook(self):
        net, rate, seed = self.net, self.rate, self.seed

        def hook(values: np.ndarray, start_index: int) -> np.ndarray:
            idx = np.arange(
                start_index, start_index + values.shape[0], dtype=np.int64
            )
            flips = (_hash_uniform(seed, net, idx) < rate) & (idx >= 0)
            return values ^ flips.astype(np.uint8)

        return hook

    @property
    def kind(self) -> str:
        return "transient"

    def describe(self, netlist: Optional[Netlist] = None) -> str:
        where = netlist.net_name(self.net) if netlist else "n%d" % self.net
        return "seu@%s rate=%g" % (where, self.rate)

    def site_id(self) -> str:
        return "seu:n%d:r%r:s%d" % (self.net, self.rate, self.seed)

    def cone_root(self, netlist: Netlist) -> int:
        return self.net


@dataclasses.dataclass(frozen=True)
class DelayFault(FaultModel):
    """Cell ``cell`` is ``extra_ns`` slower than its aged delay.

    Models a localized hot-spot (metal self-heating, a fast-aging
    transistor pair) beyond the smooth BTI curve.  Unlike value faults
    this produces genuinely *late* arrivals, which is the fault class
    the Razor bank detects and the recovery policies absorb.
    """

    cell: int
    extra_ns: float

    def __post_init__(self):
        if not isinstance(self.cell, int) or isinstance(self.cell, bool):
            raise FaultError(
                "delay-fault cell index must be an int, got %r"
                % (self.cell,)
            )
        if self.cell < 0:
            raise FaultError("delay-fault cell index must be non-negative")
        if not self.extra_ns >= 0.0:
            raise FaultError(
                "delay-fault extra_ns must be non-negative, got %r"
                % (self.extra_ns,)
            )

    def validate(self, netlist: Netlist) -> None:
        if self.cell >= len(netlist.cells):
            raise FaultError(
                "delay-fault cell %d out of range (netlist has %d cells)"
                % (self.cell, len(netlist.cells))
            )

    @property
    def kind(self) -> str:
        return "delay"

    def describe(self, netlist: Optional[Netlist] = None) -> str:
        if netlist is not None and self.cell < len(netlist.cells):
            cell = netlist.cells[self.cell]
            where = cell.name or "%s#%d" % (cell.cell_type.name, self.cell)
        else:
            where = "cell%d" % self.cell
        return "delay@%s +%.3fns" % (where, self.extra_ns)

    def site_id(self) -> str:
        return "delay:c%d:e%r" % (self.cell, self.extra_ns)

    def cone_root(self, netlist: Netlist) -> int:
        return netlist.cells[self.cell].output
