"""Mapping BTI threshold drift to gate-delay degradation.

The alpha-power law ties a transistor's drive current -- and thus a
gate's delay -- to its overdrive: ``delay ~ V_dd / (V_dd - V_th)^a``
with ``a = alpha_sat ~ 1.3`` at 32 nm.  A cell's delay-scale factor
after ``t`` years is a mix of the pull-up (NBTI) and pull-down (PBTI)
slowdowns, weighted by the cell type's ``pmos_fraction``::

    scale = f_p * ((Vdd - Vthp0) / (Vdd - Vthp0 - dVthp))^a
          + f_n * ((Vdd - Vthn0) / (Vdd - Vthn0 - dVthn))^a

These per-cell factors feed straight into
:class:`repro.timing.CompiledCircuit`, giving the aged per-pattern delay
distributions behind Figs. 7 and 19-27.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import DEFAULT_TECHNOLOGY, Technology
from ..errors import SimulationError
from ..nets.netlist import Netlist
from ..timing.engine import CompiledCircuit, StreamResult, fresh_circuit
from ..timing.value_cache import ValuePlaneCache
from .bti import BTIModel
from .stress import StressProfile, extract_stress


def delay_scale_factor(
    delta_vth: np.ndarray,
    overdrive: float,
    alpha_sat: float,
) -> np.ndarray:
    """Alpha-power delay ratio for a threshold drift ``delta_vth``."""
    drift = np.asarray(delta_vth, dtype=float)
    if np.any(drift < 0):
        raise SimulationError("threshold drift must be non-negative")
    remaining = overdrive - drift
    if np.any(remaining <= 0):
        raise SimulationError("threshold drift exceeds gate overdrive")
    return (overdrive / remaining) ** alpha_sat


def aging_delay_scale(
    netlist: Netlist,
    stress: StressProfile,
    years: float,
    technology: Technology = DEFAULT_TECHNOLOGY,
) -> np.ndarray:
    """Per-cell delay-scale factors after ``years`` of the given stress."""
    cells = netlist.cells
    if stress.num_cells != len(cells):
        raise SimulationError(
            "stress profile has %d cells, netlist has %d"
            % (stress.num_cells, len(cells))
        )
    model = BTIModel(technology)
    dvth_p = model.delta_vth(years, stress.pmos_stress, "nbti")
    dvth_n = model.delta_vth(years, stress.nmos_stress, "pbti")
    scale_p = delay_scale_factor(
        dvth_p, technology.gate_overdrive_p, technology.alpha_sat
    )
    scale_n = delay_scale_factor(
        dvth_n, technology.gate_overdrive_n, technology.alpha_sat
    )
    pmos_fraction = netlist.cell_columns().pmos_fraction
    return pmos_fraction * scale_p + (1.0 - pmos_fraction) * scale_n


def vth_shifted_delay_scale(
    netlist: Netlist,
    stress: StressProfile,
    years: float,
    vth_shift: np.ndarray,
    technology: Technology = DEFAULT_TECHNOLOGY,
) -> np.ndarray:
    """Per-cell delay scales when process variation co-models with aging.

    A die's per-cell Vth shift does not just rescale the fresh delay --
    it moves the operating point the BTI drift eats into, so a slow
    (high-Vth) die also *ages* faster in delay terms.  Both effects fall
    out of evaluating the alpha-power law at the shifted overdrive::

        scale = f_p * (ODp / (ODp - dVth_p(t) - v))^a
              + f_n * (ODn / (ODn - dVth_n(t) - v))^a

    where ``v`` is the die's signed per-cell shift (volts).  With
    ``v = 0`` this reproduces :func:`aging_delay_scale` bit for bit.

    Args:
        vth_shift: ``(num_cells,)`` or ``(dies, num_cells)`` signed
            shifts in volts (negative = fast corner).

    Returns:
        Delay-scale factors with the same leading shape as
        ``vth_shift``.
    """
    cells = netlist.cells
    if stress.num_cells != len(cells):
        raise SimulationError(
            "stress profile has %d cells, netlist has %d"
            % (stress.num_cells, len(cells))
        )
    shift = np.asarray(vth_shift, dtype=float)
    squeeze = shift.ndim == 1
    shift = np.atleast_2d(shift)
    if shift.shape[1] != len(cells):
        raise SimulationError(
            "vth_shift has %d cells, netlist has %d"
            % (shift.shape[1], len(cells))
        )
    model = BTIModel(technology)
    dvth_p = model.delta_vth(years, stress.pmos_stress, "nbti")
    dvth_n = model.delta_vth(years, stress.nmos_stress, "pbti")
    remaining_p = technology.gate_overdrive_p - dvth_p - shift
    remaining_n = technology.gate_overdrive_n - dvth_n - shift
    if np.any(remaining_p <= 0) or np.any(remaining_n <= 0):
        raise SimulationError(
            "Vth shift plus aging drift exceeds the gate overdrive; "
            "tighten the sampler sigmas or max_shift_v"
        )
    alpha = technology.alpha_sat
    scale_p = (technology.gate_overdrive_p / remaining_p) ** alpha
    scale_n = (technology.gate_overdrive_n / remaining_n) ** alpha
    pmos_fraction = netlist.cell_columns().pmos_fraction
    scales = pmos_fraction * scale_p + (1.0 - pmos_fraction) * scale_n
    return scales[0] if squeeze else scales


def characterization_stimulus(
    input_ports: Dict[str, "object"],
    num_patterns: int,
    seed: int,
) -> Dict[str, np.ndarray]:
    """The random characterization workload for a set of input ports.

    Ports up to 63 bits draw uniformly from ``[0, 2**width)``.  Wider
    ports draw the full uint64 range ``[0, 2**64)`` -- every simulated
    bit lane toggles.  (Drawing from ``[0, 2**63)``, as an earlier
    revision did, never exercises bit 63, which biases the measured
    signal probabilities -- and hence the BTI stress -- of everything
    fed by the top operand bit.)
    """
    rng = np.random.default_rng(seed)
    stimulus = {}
    for name, port in input_ports.items():
        high = (1 << port.width) if port.width < 64 else (1 << 64)
        stimulus[name] = rng.integers(
            0, high, num_patterns, dtype=np.uint64
        )
    return stimulus


@dataclasses.dataclass
class AgedCircuitFactory:
    """Produces compiled circuits for any point in a design's lifetime.

    Usage::

        factory = AgedCircuitFactory.characterize(netlist, seed=7)
        fresh = factory.circuit(years=0)
        aged = factory.circuit(years=7)

    ``characterize`` runs a random workload once to measure signal
    probabilities; ``circuit(years)`` then compiles the netlist with the
    matching per-cell delay-scale factors.  Compiled circuits are cached
    per year.
    """

    netlist: Netlist
    stress: StressProfile
    technology: Technology = DEFAULT_TECHNOLOGY

    def __post_init__(self):
        self._cache: Dict[float, CompiledCircuit] = {}
        self._model = BTIModel(self.technology)
        self._planes = ValuePlaneCache()

    @classmethod
    def characterize(
        cls,
        netlist: Netlist,
        technology: Technology = DEFAULT_TECHNOLOGY,
        num_patterns: int = 2000,
        seed: int = 2014,
        stimulus: Optional[Dict[str, np.ndarray]] = None,
    ) -> "AgedCircuitFactory":
        """Measure stress on a random (or supplied) workload."""
        stress = cls.characterize_stress(
            netlist,
            technology,
            num_patterns=num_patterns,
            seed=seed,
            stimulus=stimulus,
        )
        return cls(netlist, stress, technology)

    @staticmethod
    def characterize_stress(
        netlist: Netlist,
        technology: Technology = DEFAULT_TECHNOLOGY,
        num_patterns: int = 2000,
        seed: int = 2014,
        stimulus: Optional[Dict[str, np.ndarray]] = None,
    ) -> StressProfile:
        """Just the characterization measurement, without building a
        factory -- what persistent stores cache and restore."""
        circuit = fresh_circuit(netlist, technology)
        if stimulus is None:
            stimulus = characterization_stimulus(
                netlist.input_ports, num_patterns, seed
            )
        return extract_stress(netlist, circuit.signal_probability(stimulus))

    def use_plane_cache(self, cache: ValuePlaneCache) -> None:
        """Swap in a shared (e.g. store-backed, on-disk) plane cache."""
        self._planes = cache

    @property
    def plane_cache(self) -> ValuePlaneCache:
        """The value-plane cache this factory prices through."""
        return self._planes

    def delay_scale(self, years: float) -> np.ndarray:
        """Per-cell delay factors after ``years``."""
        return aging_delay_scale(
            self.netlist, self.stress, years, self.technology
        )

    def circuit(self, years: float = 0.0) -> CompiledCircuit:
        """Compiled circuit aged by ``years`` (cached)."""
        key = float(years)
        if key not in self._cache:
            if years == 0:
                self._cache[key] = fresh_circuit(
                    self.netlist, self.technology
                )
            else:
                self._cache[key] = CompiledCircuit(
                    self.netlist, self.technology, self.delay_scale(years)
                )
        return self._cache[key]

    def vth_shifted_scales(
        self, years: float, vth_shift: np.ndarray
    ) -> np.ndarray:
        """Delay scales for one aging point under per-cell Vth shifts
        (see :func:`vth_shifted_delay_scale`); ``vth_shift`` may carry a
        leading die axis."""
        return vth_shifted_delay_scale(
            self.netlist, self.stress, years, vth_shift, self.technology
        )

    def lifetime_delay_scales(self, years: "Sequence[float]") -> np.ndarray:
        """Stacked ``(k, num_cells)`` delay-scale matrix, one row per
        timestep (year 0 is exactly all-ones, like ``circuit(0)``)."""
        num_cells = len(self.netlist.cells)
        rows = [
            np.ones(num_cells) if year == 0 else self.delay_scale(year)
            for year in years
        ]
        return np.vstack(rows) if rows else np.empty((0, num_cells))

    def value_plane(self, stimulus: Dict[str, np.ndarray]):
        """The (cached) delay-independent value plane of ``stimulus``
        through the fresh circuit -- valid at *every* aging timestep."""
        return self._planes.get_or_build(self.circuit(0.0), stimulus)

    def stream_results(
        self,
        years: "Sequence[float]",
        stimulus: Dict[str, np.ndarray],
        collect_bit_arrivals: bool = False,
        fold: bool = True,
    ) -> "List[StreamResult]":
        """Stream results for many aging timesteps via one value pass.

        Bit-identical to ``[self.circuit(y).run(stimulus, ...) for y in
        years]`` but the levelized value loop runs once and the aged
        corners are batch-replayed (see :mod:`repro.timing.replay`);
        the results carry no switched capacitance (the power pass,
        :func:`repro.timing.replay.build_switched_caps`, prices it).

        ``fold`` (default on) additionally deduplicates repeated
        operand transitions before the value pass: the *folded* plane
        is what the :class:`ValuePlaneCache` keys and the replay
        prices, and every corner's result is scattered back to stream
        order (see :mod:`repro.timing.fold`) -- still bit-identical.
        Folding is bypassed when the stream barely repeats.
        """
        years = list(years)
        if not years:
            return []
        return self._planes.replay_scales(
            self.circuit(0.0),
            self.lifetime_delay_scales(years),
            stimulus,
            collect_bit_arrivals=collect_bit_arrivals,
            fold=fold,
        )

    def stream_result(
        self,
        years: float,
        stimulus: Dict[str, np.ndarray],
        collect_bit_arrivals: bool = False,
        fold: bool = True,
    ) -> StreamResult:
        """One aged stream result through the replay fast path."""
        return self.stream_results(
            [years],
            stimulus,
            collect_bit_arrivals=collect_bit_arrivals,
            fold=fold,
        )[0]

    def mean_delta_vth(self, years: float) -> float:
        """Workload-average threshold drift (volts), for leakage scaling."""
        if years == 0:
            return 0.0
        dvth_p = self._model.delta_vth(years, self.stress.pmos_stress, "nbti")
        dvth_n = self._model.delta_vth(years, self.stress.nmos_stress, "pbti")
        if self.stress.num_cells == 0:
            return 0.0
        return float((dvth_p.mean() + dvth_n.mean()) / 2.0)
