"""Generalized Cantor constructions, intervals, certificates, dimension."""
import math

import numpy as np
import pytest

from logmeasure import (
    BadBeta,
    BadParams,
    BudgetExceeded,
    DepthExceeded,
    box_counting_dimension,
    cantor_cdf,
    cantor_intervals,
    general_ratio_spec,
    log_modulus_certificate,
    standard_cantor_spec,
)
from logmeasure.fractal import LOG_MODULUS_SAMPLES, _gamma_eval
from logmeasure.measures import default_modulus_grid, sampled_modulus
from oracles import (
    beta_pointwise_dim_oracle,
    cantor_gamma_oracle,
    cantor_ginv_oracle,
    dim_slope_oracle,
    gamma_eval_reference,
    general_ratio_log_oracle,
)

LN2 = math.log(2.0)


class TestSpecs:
    def test_standard_spec_geometry(self):
        spec = standard_cantor_spec(3.0)
        assert spec.strictly_thin
        assert spec.d_log(1) == pytest.approx(-math.log(3.0))
        assert spec.d_log(4) == pytest.approx(-4.0 * math.log(3.0))
        assert all(abs(c - 1.0 / 3.0) < 1e-15 for c in spec.ratios()[:5])

    def test_general_spec_geometry(self):
        spec = general_ratio_spec(2.0)
        assert spec.d_log(2) == pytest.approx(-2.0)  # -2^{2/2}
        assert spec.d_log(4) == pytest.approx(-4.0)  # -2^{4/2}
        # the second-level ratio exp(-(2 - 2^{1/2})) = 0.557 exceeds 1/2,
        # so the family is not strictly thin (and has no analytic quantile)
        assert not spec.strictly_thin

    def test_bad_params(self):
        with pytest.raises(BadParams):
            standard_cantor_spec(1.5)  # needs K > 2 to leave a gap
        with pytest.raises(BadBeta):
            general_ratio_spec(0.5)  # modulus exponent must exceed 1


class TestCantorCDF:
    def test_matches_recursion_oracle_exact_points(self):
        F = cantor_cdf(standard_cantor_spec(3.0))
        assert float(F(1.0 / 9.0)) == 0.25
        assert float(F(1.0 / 3.0)) == 0.5
        assert float(F(0.5)) == 0.5
        assert float(F(2.0 / 3.0 + 1.0 / 27.0)) == pytest.approx(0.625, abs=1e-9)

    def test_matches_recursion_oracle_generic_points(self):
        F = cantor_cdf(standard_cantor_spec(3.0))
        for x in (0.1, 0.7, 0.23, 0.88):
            assert float(F(x)) == pytest.approx(
                cantor_gamma_oracle(x, 40), abs=1e-8)

    def test_quantile_matches_bisection_oracle(self):
        F = cantor_cdf(standard_cantor_spec(3.0))
        for m in (0.25, 0.5, 0.66):
            assert float(F.quantile(m)) == pytest.approx(
                cantor_ginv_oracle(m), abs=1e-8)

    def test_general_family_has_no_analytic_quantile(self):
        assert cantor_cdf(general_ratio_spec(2.0)).quantile is None


EVALUATOR_SPECS = (
    [standard_cantor_spec(K, depth=30) for K in (2.5, 3.0, 4.0, 9.0)]
    + [general_ratio_spec(beta, depth=d) for beta in (1.5, 2.0, 3.0) for d in (30, 40)]
)


def _probe_inputs(spec):
    """Edge points, points just outside [0, 1], random points, and x +- y
    grids (2-D) of the shape the one-sided engine asks for."""
    rng = np.random.default_rng(7)
    ints = cantor_intervals(spec, 10)
    los = np.asarray(ints.los)
    ends = np.concatenate((los, los + ints.width(), [0.0, 1.0]))
    edges = np.concatenate((ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)))
    outside = np.array([-1.0, -1e-300, -0.0, np.nextafter(1.0, 2.0), 1.5, -np.inf, np.inf])
    xs = rng.uniform(0.0, 1.0, 64)
    ys = 2.0 ** -rng.uniform(0.0, 52.0, 48)
    return [edges, outside, rng.uniform(-0.1, 1.1, 20000),
            xs[:, None] + ys[None, :], xs[:, None] - ys[None, :]]


class TestEvaluator:
    """The live-point evaluator against a frozen copy of the earlier one."""

    @pytest.mark.parametrize("spec", EVALUATOR_SPECS,
                             ids=lambda s: f"{s.family}-K{s.K}-b{s.beta}-d{s.depth}")
    def test_bit_identical_to_reference(self, spec):
        ratios = spec.ratios()
        for x in _probe_inputs(spec):
            for levels in (0, 1, 2, 3, spec.depth):
                got = _gamma_eval(x, ratios, levels)
                ref = gamma_eval_reference(x, ratios, levels)
                assert got.shape == x.shape
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.0, 1.0 / 3.0, 0.7, -2.0, 3.0,
                                   float(np.nextafter(0.0, 1.0))])
    def test_scalar_input_bit_identical(self, x):
        for spec in (standard_cantor_spec(3.0), general_ratio_spec(2.0, depth=40)):
            got = _gamma_eval(np.asarray(x), spec.ratios(), spec.depth)
            ref = gamma_eval_reference(np.asarray(x), spec.ratios(), spec.depth)
            assert got.shape == ()
            assert got.tobytes() == ref.tobytes()
            assert cantor_cdf(spec)(x) == float(ref)

    def test_empty_input(self):
        spec = standard_cantor_spec(3.0)
        assert _gamma_eval(np.zeros((0, 3)), spec.ratios(), 30).shape == (0, 3)

    @pytest.mark.parametrize("beta", [2.0, 3.0])
    def test_overlapping_levels_match_recursion_oracle(self, beta):
        depth = 30
        ratios = [math.exp(general_ratio_log_oracle(n, beta)) for n in range(1, depth + 1)]
        # the second level's copies overlap, so both branches recurse there
        assert ratios[1] > 0.5
        F = cantor_cdf(general_ratio_spec(beta, depth=depth))
        xs = np.concatenate((np.linspace(-0.05, 1.05, 301),
                             np.random.default_rng(3).uniform(0.0, 1.0, 200)))
        got = F(xs)
        want = [cantor_gamma_oracle(float(x), depth, ratios=ratios) for x in xs]
        assert np.max(np.abs(got - np.asarray(want))) <= 1e-12


class TestIntervals:
    def test_level_one(self):
        ints = cantor_intervals(standard_cantor_spec(3.0), 1)
        assert ints.count == 2
        assert ints.width_log == pytest.approx(-math.log(3.0))
        # right interval starts at 1 - 1/3 in construction order, one ulp
        # above the float 2/3
        assert ints.los == (0.0, 0.6666666666666667)

    def test_level_eight_frozen(self):
        ints = cantor_intervals(standard_cantor_spec(3.0), 8)
        assert ints.count == 256
        assert ints.width_log == pytest.approx(-8.788898309344878, abs=1e-12)
        assert ints.los[0] == 0.0
        assert ints.los[1] == pytest.approx(2.0 * 3.0**-8, rel=1e-12)
        assert ints.los[-1] == pytest.approx(1.0 - 3.0**-8, rel=1e-12)

    def test_budget_and_depth_guards(self):
        with pytest.raises(BudgetExceeded):
            cantor_intervals(standard_cantor_spec(3.0), 25)
        with pytest.raises(DepthExceeded):
            cantor_intervals(standard_cantor_spec(3.0, depth=10), 11)


class TestLogModulusCertificate:
    def test_standard_family_rejected(self):
        with pytest.raises(BadParams):
            log_modulus_certificate(standard_cantor_spec(3.0))

    def test_edge_form_holds_for_beta_two(self):
        cert = log_modulus_certificate(general_ratio_spec(2.0, depth=40))
        assert cert.edge_holds
        assert cert.edge_worst_ratio == pytest.approx(1.0, abs=1e-12)

    def test_windowed_form_fails_for_beta_two(self):
        # The supremum over whole dyadic windows exceeds the bound at the
        # scale where two construction levels interact; the certificate
        # reports this honestly rather than claiming the stronger form.
        cert = log_modulus_certificate(general_ratio_spec(2.0, depth=40))
        assert not cert.holds
        assert cert.worst_ratio == pytest.approx(1.5014156684943794, rel=1e-9)
        assert cert.worst_scale == pytest.approx(0.03125)

    def test_beta_three_halves_edge_holds(self):
        cert = log_modulus_certificate(general_ratio_spec(1.5, depth=40))
        assert cert.edge_holds

    @pytest.mark.parametrize("depth", [3, 30])
    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_matches_a_scalar_recomputation(self, beta, depth):
        """Both forms against a scale-by-scale loop in Python math: dyadic
        scales from the first below e^-(beta+1) to 2^-40 plus the level
        lengths in that range, slack 2^(1-depth) |ln y|^beta + 1e-9 (at
        depth 3 the slack decides the beta = 2 and beta = 3 verdicts)."""
        spec = general_ratio_spec(beta, depth=depth)
        cert = log_modulus_certificate(spec)
        F = cantor_cdf(spec)
        eps = math.exp(-(beta + 1.0))
        scales = {2.0**-j for j in range(60) if 2.0**-40 <= 2.0**-j <= eps}
        scales |= {math.exp(spec.d_log(n)) for n in range(1, spec.depth + 1)
                   if 2.0**-40 <= math.exp(spec.d_log(n)) <= eps}
        scales = sorted(scales, reverse=True)
        assert list(cert.scales) == scales
        grid = default_modulus_grid(F, LOG_MODULUS_SAMPLES)
        forms = {"sup": [float(sampled_modulus(F, y, grid=grid)) for y in scales],
                 "edge": [float(F(y)) for y in scales]}
        got = {"sup": (cert.holds, cert.worst_ratio, cert.worst_scale, cert.ratios),
               "edge": (cert.edge_holds, cert.edge_worst_ratio, cert.edge_worst_scale,
                        cert.edge_ratios)}
        for form, incs in forms.items():
            ratios, holds = [], True
            for y, inc in zip(scales, incs):
                weight = abs(math.log(y)) ** beta
                ratios.append(inc * weight)
                holds = holds and inc * weight <= 1.0 + 2.0 ** (1 - spec.depth) * weight + 1e-9
            k = max(range(len(ratios)), key=lambda i: (ratios[i], -i))
            c_holds, c_worst, c_scale, c_ratios = got[form]
            assert (c_holds, c_scale) == (holds, scales[k])
            assert c_worst == pytest.approx(ratios[k], rel=1e-15, abs=0.0)
            assert c_ratios == pytest.approx(ratios, rel=1e-15, abs=0.0)


class TestBoxCountingDimension:
    @pytest.mark.parametrize("K", [3.0, 4.0, 9.0])
    def test_slope_matches_log_ratio(self, K):
        est = box_counting_dimension(standard_cantor_spec(K), 4, 16)
        assert est.slope == pytest.approx(dim_slope_oracle(K), abs=1e-6)
        assert est.residual < 1e-10

    def test_frozen_slope_K3(self):
        est = box_counting_dimension(standard_cantor_spec(3.0), 4, 16)
        assert est.slope == pytest.approx(0.6309297535714575, rel=1e-14)
        assert est.pointwise[-1] == pytest.approx(0.6309297535714574, rel=1e-14)

    def test_thin_family_pointwise_decay(self):
        est = box_counting_dimension(general_ratio_spec(2.0, depth=40), 4, 36)
        assert est.pointwise[-1] == pytest.approx(
            beta_pointwise_dim_oracle(36), rel=1e-12)
        assert est.pointwise[-1] <= 1e-4
        # monotone decay across the sampled tail
        tail = est.pointwise[4:]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_field_lengths_consistent(self):
        est = box_counting_dimension(standard_cantor_spec(3.0), 4, 16)
        n = len(est.levels)
        assert len(est.scales_log) == len(est.counts_log) == len(est.pointwise) == n
