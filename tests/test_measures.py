"""Monotone CDFs, step densities, and partition helpers."""
import math

import numpy as np
import pytest

from logmeasure import (
    BadParams,
    Block,
    MalformedInterval,
    OverlapError,
    QuadratureConfig,
    StepDensity,
    arcsin_profile_cdf,
    cdf_from_step_density,
    default_modulus_grid,
    generalized_inverse,
    interval_mass,
    l1_divergent_blocks,
    mass_uniform_partition,
    power_law_cdf,
    sampled_modulus,
    scale_cdf,
    table_cdf,
    translate_cdf,
    uniform_cdf,
)

LN2 = math.log(2.0)


class TestUniformCDF:
    def test_values_and_clamping(self):
        F = uniform_cdf(0.0, 1.0, 1.0)
        assert F(0.5) == 0.5
        assert F(-3.0) == 0.0
        assert F(7.0) == 1.0
        assert F.total_mass == 1.0
        assert (F.support_lo, F.support_hi) == (0.0, 1.0)
        assert F.continuous

    def test_vectorized(self):
        F = uniform_cdf(2.0, 4.0, 3.0)
        xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_allclose(F(xs), [0.0, 0.0, 1.5, 3.0, 3.0])

    def test_quantile_inverts(self):
        F = uniform_cdf(0.0, 2.0, 1.0)
        for m in (0.0, 0.25, 0.5, 1.0):
            assert F.quantile(m) == pytest.approx(2.0 * m, abs=1e-15)

    def test_degenerate_support_rejected(self):
        with pytest.raises(MalformedInterval):
            uniform_cdf(1.0, 0.0, 1.0)


class TestPowerLawCDF:
    def test_values(self):
        F = power_law_cdf(2.0, 0.5, 4.0)
        assert F.total_mass == pytest.approx(2.0 * 2.0)
        assert F(1.0) == pytest.approx(2.0)
        assert F(0.25) == pytest.approx(1.0)

    def test_exponent_range_enforced(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(BadParams):
                power_law_cdf(1.0, bad, 1.0)

    def test_quantile_inverts(self):
        F = power_law_cdf(1.0, 0.5, 1.0)
        for m in (0.04, 0.25, 0.81, 1.0):
            assert F(F.quantile(m)) == pytest.approx(m, abs=1e-12)


class TestTableCDF:
    def test_right_continuous_steps(self):
        F = table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0])
        assert F(0.0) == 0.2
        assert F(0.49) == 0.2
        assert F(0.5) == 0.7
        assert F(2.0) == 1.0
        assert not F.continuous

    def test_validation(self):
        with pytest.raises(BadParams):
            table_cdf([0.5, 0.0], [0.1, 0.2])
        with pytest.raises(BadParams):
            table_cdf([0.0, 0.5], [0.3, 0.2])


class TestTransforms:
    def test_scale_multiplies_mass(self):
        F = uniform_cdf(0.0, 1.0, 1.0)
        G = scale_cdf(F, 3.0)
        assert G.total_mass == pytest.approx(3.0)
        assert G(0.5) == pytest.approx(1.5)
        assert G.params["scaled_by"] == 3.0

    def test_scale_positive_only(self):
        with pytest.raises(BadParams):
            scale_cdf(uniform_cdf(0.0, 1.0, 1.0), -2.0)

    def test_translate_shifts_support(self):
        F = uniform_cdf(0.0, 1.0, 1.0)
        G = translate_cdf(F, 2.5)
        assert (G.support_lo, G.support_hi) == (2.5, 3.5)
        assert G(3.0) == pytest.approx(0.5)
        assert G(0.5) == 0.0


class TestGeneralizedInverse:
    def test_uniform_identity(self):
        F = uniform_cdf(0.0, 1.0, 1.0)
        assert generalized_inverse(F, 0.25) == pytest.approx(0.25, abs=1e-12)

    def test_left_plateau_convention(self):
        # mass jumps: inf{x : F(x) >= m} lands on the jump location
        F = table_cdf([0.0, 1.0], [0.5, 1.0])
        assert generalized_inverse(F, 0.5) == pytest.approx(0.0, abs=1e-9)
        assert generalized_inverse(F, 0.75) == pytest.approx(1.0, abs=1e-9)


class TestPartition:
    def test_masses_sum_and_order(self):
        F = power_law_cdf(1.0, 0.5, 1.0)
        cells = mass_uniform_partition(F, 16)
        assert len(cells) == 16
        assert sum(c.mass for c in cells) == pytest.approx(F.total_mass, rel=1e-12)
        for a, b in zip(cells, cells[1:]):
            assert a.hi <= b.lo + 1e-15
        for c in cells:
            assert c.mass == pytest.approx(F.total_mass / 16, rel=1e-9)

    def test_interval_mass(self):
        F = uniform_cdf(0.0, 1.0, 1.0)
        assert interval_mass(F, 0.25, 0.75) == pytest.approx(0.5)


class TestBlocks:
    def test_block_geometry(self):
        b = Block(1.0, -LN2, LN2)  # width 1/2, height 2
        assert b.width() == pytest.approx(0.5)
        assert b.mass() == pytest.approx(1.0)

    def test_block_constraints(self):
        with pytest.raises(BadParams):
            Block(0.0, 0.1, 1.0)  # width > 1
        with pytest.raises(BadParams):
            Block(0.0, -1.0, -0.1)  # height < 1

    def test_step_density_overlap_rejected(self):
        with pytest.raises(OverlapError):
            StepDensity((Block(0.0, 0.0, 1.0), Block(0.5, 0.0, 1.0)))

    def test_divergent_blocks_geometry(self):
        f = l1_divergent_blocks(50)
        assert len(f.blocks) == 50
        # block n has mass h_n d_n = 2^-n, exactly representable
        for n, b in enumerate(f.blocks, start=1):
            assert b.mass() == pytest.approx(2.0**-n, rel=1e-12)
            assert b.a == pytest.approx(2.0 * n)
        assert f.total_mass() == pytest.approx(1.0 - 2.0**-50, rel=1e-14)

    def test_cdf_from_step_density(self):
        f = StepDensity((Block(0.0, 0.0, LN2),))  # height 2 on [0,1]
        F = cdf_from_step_density(f)
        assert F.continuous
        assert F(0.5) == pytest.approx(1.0)
        assert F.total_mass == pytest.approx(2.0)


class TestModulusSampling:
    def test_uniform_modulus_is_scale(self):
        F = uniform_cdf(0.0, 1.0, 1.0)
        mods = sampled_modulus(F, np.array([0.1, 0.01]))
        np.testing.assert_allclose(mods, [0.1, 0.01], rtol=1e-9)

    def test_grid_includes_support_endpoints(self):
        F = power_law_cdf(1.0, 0.5, 1.0)
        grid = default_modulus_grid(F)
        assert grid.min() <= F.support_lo
        assert grid.max() >= F.support_hi
        assert np.all(np.diff(grid) >= 0.0)


class TestArcsinProfile:
    def test_closed_form_points(self):
        F = arcsin_profile_cdf()
        assert F(0.0) == pytest.approx(0.0, abs=1e-15)
        assert F(2.0) == pytest.approx(1.0, rel=1e-12)
        # (2/pi) arcsin(1/2) = 1/3
        assert F(1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(BadParams):
            QuadratureConfig(depth_schedule=())
        with pytest.raises(BadParams):
            QuadratureConfig(agreement_tol=0.0)
        for key in ("agreement_tol", "divergence_budget"):
            for bad in (math.nan, math.inf, -1.0):
                with pytest.raises(BadParams, match=key):
                    QuadratureConfig(**{key: bad})
