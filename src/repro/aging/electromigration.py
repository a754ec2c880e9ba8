"""Interconnect electromigration aging (paper Section V).

The conclusion discusses a second aging mechanism: electromigration (EM)
-- metal ions drift with the electron flow, wires thin, resistance and
wire delay grow, and the effect compounds with BTI.  The paper argues
its variable-latency multipliers tolerate the combined degradation
better than worst-case-clocked designs; the extension experiment
``ext_em`` quantifies that claim.

Model: a cell's output wire carries a current proportional to its
switching activity (each transition charges the wire).  Black's equation
gives the EM time-to-degradation scaling ``MTTF ~ J^-n_em *
exp(Ea_em/kT)``; we use its inverse as a resistance-growth law::

    dR/R (t) = em_coefficient * (J / J_ref)^n_em
               * exp(-Ea_em / kT) / exp(-Ea_em / kT_ref)
               * (t / t_ref)^em_time_exponent

with the activity-derived current density ``J ~ toggle rate``.  The
added wire resistance stretches the cell's delay proportionally to the
wire's share of the stage delay (``wire_delay_fraction``).  Constants
are chosen so a continuously switching wire gains ~10% delay over ten
years at 125 degC -- the magnitude EM budgeting guides use; like the
BTI prefactor they are knobs, and the *claims* tested are comparative.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from ..config import BOLTZMANN_EV, DEFAULT_TECHNOLOGY, Technology
from ..errors import ConfigError, SimulationError
from ..nets.netlist import Netlist


@dataclasses.dataclass(frozen=True)
class ElectromigrationModel:
    """Activity-driven interconnect delay degradation.

    Args:
        technology: Supplies the junction temperature.
        em_coefficient: Resistance growth of a reference wire (toggle
            rate 1.0) after ``reference_years`` at the reference
            temperature.
        current_exponent: Black's-equation current-density exponent
            (1-2 in practice).
        time_exponent: Resistance-growth time exponent.
        activation_ev: EM activation energy (Cu: ~0.9 eV).
        reference_years: Time at which ``em_coefficient`` is defined.
        wire_delay_fraction: Share of a stage delay attributable to the
            wire RC (the part EM stretches).
    """

    technology: Technology = DEFAULT_TECHNOLOGY
    em_coefficient: float = 0.25
    current_exponent: float = 1.5
    time_exponent: float = 0.5
    activation_ev: float = 0.9
    reference_years: float = 10.0
    reference_temperature: float = 398.15
    wire_delay_fraction: float = 0.4

    def __post_init__(self):
        if self.em_coefficient < 0:
            raise ConfigError("em_coefficient must be non-negative")
        if self.reference_years <= 0:
            raise ConfigError("reference_years must be positive")
        if not 0 <= self.wire_delay_fraction <= 1:
            raise ConfigError("wire_delay_fraction must lie in [0, 1]")

    def thermal_acceleration(self) -> float:
        """Arrhenius acceleration vs the reference temperature."""
        kt = BOLTZMANN_EV * self.technology.temperature
        kt_ref = BOLTZMANN_EV * self.reference_temperature
        return math.exp(-self.activation_ev / kt) / math.exp(
            -self.activation_ev / kt_ref
        )

    def resistance_growth(
        self, toggle_rate: np.ndarray, years: float
    ) -> np.ndarray:
        """Fractional wire-resistance increase after ``years``."""
        if years < 0:
            raise ConfigError("years must be non-negative")
        rate = np.clip(np.asarray(toggle_rate, dtype=float), 0.0, None)
        if years == 0:
            return np.zeros_like(rate)
        return (
            self.em_coefficient
            * rate**self.current_exponent
            * self.thermal_acceleration()
            * (years / self.reference_years) ** self.time_exponent
        )

    def delay_scale(
        self,
        netlist: Netlist,
        toggle_rate: np.ndarray,
        years: float,
    ) -> np.ndarray:
        """Per-cell delay factors from per-cell output toggle rates."""
        cells = netlist.cells
        rate = np.asarray(toggle_rate, dtype=float)
        if rate.shape != (len(cells),):
            raise SimulationError(
                "toggle_rate must have one entry per cell (%d), got %r"
                % (len(cells), rate.shape)
            )
        growth = self.resistance_growth(rate, years)
        return 1.0 + self.wire_delay_fraction * growth


def cell_toggle_rates(
    netlist: Netlist,
    toggle_counts: Optional[np.ndarray],
    num_patterns: int,
) -> np.ndarray:
    """Per-cell output toggle rates from per-net toggle totals.

    ``toggle_counts`` comes from the values-only
    :meth:`~repro.timing.engine.CompiledCircuit.toggle_counts` pass
    (or :meth:`~repro.experiments.context.ExperimentContext
    .toggle_counts`, which persists it in the artifact store).
    """
    if num_patterns < 1:
        raise SimulationError("num_patterns must be >= 1")
    if toggle_counts is None:
        raise SimulationError(
            "toggle_counts missing: compute them with "
            "CompiledCircuit.toggle_counts"
        )
    counts = np.asarray(toggle_counts, dtype=float)
    if counts.shape[0] < netlist.num_nets:
        raise SimulationError("toggle_counts shorter than the net table")
    return np.array(
        [counts[cell.output] / num_patterns for cell in netlist.cells]
    )


def combined_delay_scale(
    bti_scale: np.ndarray, em_scale: np.ndarray
) -> np.ndarray:
    """Compose BTI and EM degradation (independent mechanisms)."""
    bti = np.asarray(bti_scale, dtype=float)
    em = np.asarray(em_scale, dtype=float)
    if bti.shape != em.shape:
        raise SimulationError("scale arrays must be equally shaped")
    return bti * em
