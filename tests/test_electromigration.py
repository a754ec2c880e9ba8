"""Electromigration model (Section V extension)."""

import numpy as np
import pytest

from repro.aging import (
    ElectromigrationModel,
    cell_toggle_rates,
    combined_delay_scale,
)
from repro.errors import ConfigError, SimulationError
from repro.timing import CompiledCircuit
from repro.workloads import uniform_operands


@pytest.fixture(scope="module")
def em():
    return ElectromigrationModel()


class TestResistanceGrowth:
    def test_zero_at_year_zero(self, em):
        growth = em.resistance_growth(np.array([0.5, 1.0]), 0.0)
        assert np.all(growth == 0.0)

    def test_idle_wire_never_degrades(self, em):
        growth = em.resistance_growth(np.array([0.0]), 10.0)
        assert growth[0] == 0.0

    def test_monotone_in_activity(self, em):
        rates = np.linspace(0, 1, 6)
        growth = em.resistance_growth(rates, 10.0)
        assert np.all(np.diff(growth) >= 0)

    def test_monotone_in_time(self, em):
        early = em.resistance_growth(np.array([1.0]), 2.0)
        late = em.resistance_growth(np.array([1.0]), 10.0)
        assert late[0] > early[0]

    def test_reference_magnitude(self, em):
        """A continuously switching wire gains em_coefficient at the
        reference point."""
        growth = em.resistance_growth(
            np.array([1.0]), em.reference_years
        )
        assert growth[0] == pytest.approx(
            em.em_coefficient * em.thermal_acceleration()
        )

    def test_hotter_is_worse(self):
        cool = ElectromigrationModel(
            ElectromigrationModel().technology.replace(temperature=350.0)
        )
        hot = ElectromigrationModel()
        assert (
            hot.thermal_acceleration() > cool.thermal_acceleration()
        )

    def test_negative_years_rejected(self, em):
        with pytest.raises(ConfigError):
            em.resistance_growth(np.array([1.0]), -1.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ElectromigrationModel(em_coefficient=-0.1)
        with pytest.raises(ConfigError):
            ElectromigrationModel(wire_delay_fraction=1.5)


class TestDelayScale:
    def test_scale_from_activity(self, em, cb4):
        circuit = CompiledCircuit(cb4)
        md, mr = uniform_operands(4, 400, seed=71)
        counts = circuit.toggle_counts({"md": md, "mr": mr})
        rates = cell_toggle_rates(cb4, counts, 400)
        assert rates.shape == (len(cb4.cells),)
        assert np.all(rates >= 0)
        scale = em.delay_scale(cb4, rates, 7.0)
        assert np.all(scale >= 1.0)
        # Busier cells age more.
        busiest = int(np.argmax(rates))
        laziest = int(np.argmin(rates))
        assert scale[busiest] >= scale[laziest]

    def test_shape_mismatch_rejected(self, em, cb4):
        with pytest.raises(SimulationError):
            em.delay_scale(cb4, np.ones(3), 1.0)

    def test_toggle_rates_require_stats(self, cb4):
        with pytest.raises(SimulationError):
            cell_toggle_rates(cb4, None, 100)

    def test_combined_composition(self):
        bti = np.array([1.1, 1.2])
        em_scale = np.array([1.05, 1.0])
        combined = combined_delay_scale(bti, em_scale)
        assert combined == pytest.approx([1.155, 1.2])

    def test_combined_shape_check(self):
        with pytest.raises(SimulationError):
            combined_delay_scale(np.ones(2), np.ones(3))
