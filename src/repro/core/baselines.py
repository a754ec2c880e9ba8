"""Fixed-latency baselines: AM, FLCB and FLRB.

A fixed-latency design clocks every operation at the critical-path delay
(the paper's 1.32 / 1.88 / 1.82 ns for the 16x16 AM / FLCB / FLRB), so
its average latency *is* the critical path -- which grows as the circuit
ages.  :class:`FixedLatencyDesign` measures that consistently with the
variable-latency architecture: same netlists, same aging model, same
technology card.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..aging.degradation import AgedCircuitFactory
from ..arith.array_mult import array_multiplier
from ..arith.column_bypass import column_bypass_multiplier
from ..arith.row_bypass import row_bypass_multiplier
from ..config import DEFAULT_TECHNOLOGY, Technology
from ..errors import ConfigError
from ..nets.netlist import Netlist
from ..timing.sta import StaticTiming, critical_delays

#: Multiplier generators by kind keyword.
GENERATORS = {
    "am": array_multiplier,
    "column": column_bypass_multiplier,
    "row": row_bypass_multiplier,
}


def build_multiplier(width: int, kind: str) -> Netlist:
    """Dispatch to the generator for ``kind`` in {am, column, row}."""
    try:
        generator = GENERATORS[kind]
    except KeyError:
        raise ConfigError(
            "kind must be one of %s, got %r" % (sorted(GENERATORS), kind)
        ) from None
    return generator(width)


@dataclasses.dataclass
class FixedLatencyDesign:
    """A multiplier clocked at its (aging-aware) critical path."""

    netlist: Netlist
    factory: AgedCircuitFactory
    technology: Technology = DEFAULT_TECHNOLOGY
    name: str = ""

    def __post_init__(self):
        if not self.name:
            self.name = self.netlist.name
        self._latency_cache: Dict[float, float] = {}

    @classmethod
    def build(
        cls,
        width: int,
        kind: str,
        technology: Technology = DEFAULT_TECHNOLOGY,
        characterize_patterns: int = 2000,
        characterize_seed: int = 2014,
        name: str = "",
    ) -> "FixedLatencyDesign":
        """Construct and characterize (stress-profile) a baseline."""
        netlist = build_multiplier(width, kind)
        factory = AgedCircuitFactory.characterize(
            netlist,
            technology,
            num_patterns=characterize_patterns,
            seed=characterize_seed,
        )
        return cls(netlist, factory, technology, name=name)

    def latency_ns(self, years: float = 0.0) -> float:
        """Fixed cycle period = aged critical-path delay (cached)."""
        key = float(years)
        if key not in self._latency_cache:
            scale = None if years == 0 else self.factory.delay_scale(years)
            sta = StaticTiming(self.netlist, self.technology, scale)
            self._latency_cache[key] = sta.critical_delay
        return self._latency_cache[key]

    def latencies_ns(self, years) -> "list[float]":
        """Aged critical paths for many years in one vectorized STA
        sweep (:func:`~repro.timing.sta.critical_delays`) -- each entry
        bit-identical to :meth:`latency_ns`, and cached under the same
        keys, so lifetime sweeps pay one topological pass instead of
        one per year."""
        missing = [
            float(year)
            for year in years
            if float(year) not in self._latency_cache
        ]
        if missing:
            delays = critical_delays(
                self.netlist,
                self.technology,
                self.factory.lifetime_delay_scales(missing),
            )
            for year, delay in zip(missing, delays):
                self._latency_cache[year] = float(delay)
        return [self._latency_cache[float(year)] for year in years]

    def run_stream(
        self,
        md: np.ndarray,
        mr: np.ndarray,
        years: float = 0.0,
    ):
        """Simulate a stream at the given age (for power measurements)."""
        return self.factory.circuit(years).run({"md": md, "mr": mr})

    def degradation_ratio(self, years: float) -> float:
        """Latency growth vs fresh silicon, e.g. 0.15 for +15%."""
        return self.latency_ns(years) / self.latency_ns(0.0) - 1.0
