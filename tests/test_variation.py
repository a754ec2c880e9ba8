"""Process-variation sampling and the variation-tolerance claims of
elastic clocking, on repro.montecarlo's correlated Vth sampler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.montecarlo import (
    CorrelatedVthSampler,
    MonteCarloSpec,
    latency_surfaces,
    price_population,
)
from repro.montecarlo.runner import _pricing_inputs


@pytest.fixture(scope="module")
def factory(ctx):
    return ctx.factory(4, "column")


def _sample(factory, num_dies, seed=0, **sigmas):
    """Signed Vth shifts of dies ``[0, num_dies)`` for the 4-bit column
    design, and the fresh per-cell delay scales they induce."""
    spec = MonteCarloSpec.from_overrides(
        num_dies=num_dies, seed=seed, **sigmas
    )
    sampler = CorrelatedVthSampler(len(factory.netlist.cells), spec)
    shifts = sampler.sample(0, num_dies)
    return shifts, factory.vth_shifted_scales(0.0, shifts)


class TestSampling:
    def test_reproducible(self, factory):
        first_shifts, first_scales = _sample(factory, 3, seed=5)
        second_shifts, second_scales = _sample(factory, 3, seed=5)
        assert np.array_equal(first_shifts, second_shifts)
        assert np.array_equal(first_scales, second_scales)

    def test_shape_and_positivity(self, factory):
        _, scales = _sample(
            factory, 5, sigma_global_v=0.03, sigma_random_v=0.015
        )
        assert scales.shape == (5, len(factory.netlist.cells))
        assert np.all(scales > 0)

    def test_zero_sigma_is_nominal(self, factory):
        shifts, scales = _sample(
            factory,
            1,
            sigma_global_v=0.0,
            sigma_spatial_v=0.0,
            sigma_random_v=0.0,
        )
        assert np.all(shifts == 0.0)
        assert np.allclose(scales, 1.0)

    def test_global_sigma_moves_dies_together(self, factory):
        shifts, scales = _sample(
            factory,
            8,
            seed=9,
            sigma_global_v=0.05,
            sigma_spatial_v=0.0,
            sigma_random_v=0.0,
        )
        # Each die is internally uniform; dies differ from each other.
        for die in shifts:
            assert np.allclose(die, die[0])
        means = scales.mean(axis=1)
        assert means.max() / means.min() > 1.05

    def test_validation(self):
        with pytest.raises(ConfigError):
            MonteCarloSpec.from_overrides(sigma_global_v=-0.1)

    def test_num_dies_validated(self, factory):
        with pytest.raises(ConfigError):
            MonteCarloSpec.from_overrides(num_dies=0)
        sampler = CorrelatedVthSampler(
            len(factory.netlist.cells), MonteCarloSpec.from_overrides()
        )
        with pytest.raises(ConfigError):
            sampler.sample(2, 1)


class TestYieldAnalysis:
    """Elastic clocking as process-variation tolerance (related work
    [19]) on the 16x16 column design at Skip-7, clocked at 0.9x its
    fresh critical path.  Sigmas are log-delay sigmas, mapped onto
    global / random Vth sigmas through the alpha-power slope
    ``d(log delay)/dVth = alpha_sat / overdrive``."""

    @staticmethod
    def _price(ctx, log_global, log_random, seed, num_dies, num_patterns,
               years=(0.0,)):
        tech = ctx.technology
        overdrive = 0.5 * (tech.gate_overdrive_p + tech.gate_overdrive_n)
        slope = tech.alpha_sat / overdrive
        spec = MonteCarloSpec.from_overrides(
            num_dies=num_dies,
            num_patterns=num_patterns,
            seed=seed,
            years=years,
            clock_fractions=(0.9,),
            sigma_global_v=log_global / slope,
            sigma_spatial_v=0.0,
            sigma_random_v=log_random / slope,
        )
        factory, netlist, stimulus, zeros, clock_ns, _ = _pricing_inputs(
            spec, 16, "column", ctx
        )
        sampler = CorrelatedVthSampler(len(netlist.cells), spec)
        reductions = price_population(
            factory, sampler, spec, stimulus, zeros, 16, 7, clock_ns
        )
        latency = latency_surfaces(reductions)[1][:, :, 0]
        return reductions, latency

    @staticmethod
    def _spread(values):
        """(max - min) / mean across dies."""
        return float((values.max() - values.min()) / values.mean())

    def test_variation_spreads_latency(self, ctx):
        _, calm = self._price(ctx, 0.0, 0.0, 17, 8, 400)
        _, wild = self._price(ctx, 0.15, 0.05, 17, 8, 400)
        assert self._spread(calm[:, 0]) <= 1e-9
        assert self._spread(wild[:, 0]) > self._spread(calm[:, 0])

    def test_variable_latency_dampens_corners(self, ctx):
        """Slow dies pay Razor re-executions instead of failing, so the
        latency spread stays far below the critical-path spread (a
        global log-delay sigma of 0.15 is ~35% die to die at 2 sigma)."""
        reductions, latency = self._price(ctx, 0.15, 0.0, 19, 12, 500)
        spread = self._spread(latency[:, 0])
        assert spread < 0.35
        assert spread < self._spread(reductions.crit_ns[:, 0])

    def test_aged_dies_slower(self, ctx):
        _, latency = self._price(
            ctx, 0.05, 0.03, 23, 6, 400, years=(0.0, 7.0)
        )
        assert latency[:, 1].mean() >= latency[:, 0].mean()

    def test_yield_across_corners(self, ctx):
        """A 2-sigma ~ +-20% corner spread stays a bounded latency
        spread, and the dies stay inside the two-cycle safety envelope
        (no operation past the two-cycle budget)."""
        reductions, latency = self._price(ctx, 0.10, 0.03, 3, 12, 800)
        assert self._spread(latency[:, 0]) < 0.40
        assert (reductions.deep_ops[:, 0, 0] == 0).mean() >= 0.75
