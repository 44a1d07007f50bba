"""Membership classifier, modulus fits, and integrability functionals."""
import dataclasses
import math

import numpy as np
import pytest

from logmeasure import (
    BadParams,
    Block,
    DIVERGENCE_CERTIFIED,
    DegenerateModulus,
    MEMBER_CERTIFIED,
    QuadratureConfig,
    StepDensity,
    UNKNOWN,
    classify_membership,
    fit_holder,
    l_log_l_gamma,
    log_modulus_checks,
    lp_norm,
    l1_divergent_blocks,
    power_law_cdf,
    sampled_modulus,
    table_cdf,
    uniform_cdf,
)
import logmeasure.criteria as criteria_mod
from logmeasure.fractal import cantor_cdf, general_ratio_spec, standard_cantor_spec
from logmeasure.planar import power_law_profile
from oracles import cantor_modulus_oracle, staircase_llogl_oracle

LN2 = math.log(2.0)


class TestModulusOfContinuity:
    def test_uniform(self):
        F = uniform_cdf(0.0, 1.0, 1.0)
        assert float(sampled_modulus(F, 0.1)) == pytest.approx(0.1, rel=1e-9)

    def test_cantor_matches_oracle(self):
        F = cantor_cdf(standard_cantor_spec(3.0))
        assert float(sampled_modulus(F, 1.0 / 9.0)) == pytest.approx(
            cantor_modulus_oracle(1.0 / 9.0), rel=1e-6)


class TestFitHolder:
    def test_sqrt_profile_exact(self):
        fit = fit_holder(power_law_cdf(1.0, 0.5, 1.0), 4, 16)
        assert fit.alpha == pytest.approx(0.5, abs=1e-12)
        assert fit.K == pytest.approx(1.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_lipschitz(self):
        fit = fit_holder(uniform_cdf(0.0, 1.0, 1.0), 4, 16)
        assert fit.alpha == pytest.approx(1.0, abs=1e-9)
        assert fit.K == pytest.approx(1.0, rel=1e-9)

    def test_cantor_frozen(self):
        fit = fit_holder(cantor_cdf(standard_cantor_spec(3.0)), 4, 16)
        assert fit.alpha == pytest.approx(0.6243061159371516, rel=1e-12)
        assert fit.K == pytest.approx(0.9121653512288663, rel=1e-12)
        assert fit.residual == pytest.approx(0.18196699410297068, rel=1e-9)
        assert 0.61 <= fit.alpha <= 0.65  # brackets ln2/ln3 = 0.6309...

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateModulus):
            fit_holder(uniform_cdf(0.0, 1.0, 0.0), 4, 16)

    def test_bad_window_rejected(self):
        with pytest.raises(BadParams):
            fit_holder(uniform_cdf(0.0, 1.0, 1.0), 16, 4)

    def test_as_dict(self):
        fit = fit_holder(power_law_cdf(1.0, 0.5, 1.0), 4, 16)
        d = fit.as_dict()
        assert set(d) >= {"alpha", "K", "residual", "mods"}

    def test_mods_are_the_sampled_modulus_at_the_scales(self):
        F = cantor_cdf(standard_cantor_spec(3.0))
        fit = fit_holder(F, 4, 16)
        assert len(fit.mods) == len(fit.scales) == 13
        assert fit.mods == tuple(float(sampled_modulus(F, y)) for y in fit.scales)


class TestCheckLogModulus:
    def test_frozen_ratios(self):
        F_u = uniform_cdf(0.0, 1.0, 1.0)
        F_t = table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0])
        F_b2 = cantor_cdf(general_ratio_spec(2.0))
        F_c = cantor_cdf(standard_cantor_spec(3.0))

        rep = log_modulus_checks(F_u, (2.0,))[0]
        assert rep["holds"]
        assert rep["worst_ratio"] == pytest.approx(0.37535391712359484, rel=1e-9)

        rep = log_modulus_checks(F_t, (2.0,))[0]  # atoms break any modulus bound
        assert not rep["holds"]
        assert rep["worst_ratio"] == pytest.approx(29.067407342051183, rel=1e-9)

        # the doubly exponential family satisfies the beta = 1.5 bound but
        # its windowed beta = 2 supremum overshoots (ratio 1.50 at the
        # level-interaction scale)
        rep = log_modulus_checks(F_b2, (1.5,))[0]
        assert rep["holds"]
        assert rep["worst_ratio"] == pytest.approx(0.8656243220792096, rel=1e-9)
        rep = log_modulus_checks(F_b2, (2.0,))[0]
        assert not rep["holds"]
        assert rep["worst_ratio"] == pytest.approx(1.5014156684943794, rel=1e-9)

        rep = log_modulus_checks(F_c, (2.0,))[0]
        assert not rep["holds"]
        assert rep["worst_ratio"] == pytest.approx(1.1260617513707845, rel=1e-9)

    def test_beta_must_exceed_one(self):
        from logmeasure import BadBeta

        with pytest.raises(BadBeta):
            log_modulus_checks(uniform_cdf(0.0, 1.0, 1.0), (1.0,))


class TestIntegrabilityFunctionals:
    def test_lp_norms(self):
        one = StepDensity((Block(0.0, 0.0, LN2),))  # height 2 on [0,1]
        assert lp_norm(one, 3.0) == pytest.approx(2.0, rel=1e-12)
        f50 = l1_divergent_blocks(50)
        assert lp_norm(f50, 1.0) == pytest.approx(1.0 - 2.0**-50, abs=1e-12)
        assert lp_norm(f50, 2.0) == math.inf  # heights overwhelm any p > 1

    def test_lp_exponent_validated(self):
        with pytest.raises(BadParams):
            lp_norm(l1_divergent_blocks(3), 0.5)

    def test_llogl_threshold(self):
        f50 = l1_divergent_blocks(50)
        v = l_log_l_gamma(f50, 0.4)
        assert v == pytest.approx(6.619098242450234, rel=1e-12)
        assert v == pytest.approx(staircase_llogl_oracle(0.4), rel=1e-9)
        assert l_log_l_gamma(f50, 0.5) == math.inf
        assert l_log_l_gamma(f50, 0.6) == math.inf


class TestClassifierSampling:
    """The classifier samples each modulus scale once."""

    @staticmethod
    def _spy(monkeypatch, name):
        seen = []
        original = getattr(criteria_mod, name)

        def spy(F, *args, **kwargs):
            seen.append(args[0] if args else None)
            return original(F, *args, **kwargs)

        monkeypatch.setattr(criteria_mod, name, spy)
        return seen

    def test_lipschitz_gate_reuses_the_fit(self, monkeypatch):
        # one sample over the 13 fitting scales 2^-4 .. 2^-16 and the 4
        # out-of-sample ones, for inputs that conclude at Lipschitz or Holder
        for F, rule in [(uniform_cdf(), "Lipschitz"),
                        (cantor_cdf(standard_cantor_spec(3.0)), "Holder"),
                        (power_law_cdf(1.0, 0.5, 1.0), "Holder")]:
            seen = self._spy(monkeypatch, "sampled_modulus")
            v = classify_membership(F)
            assert v.rule == rule
            assert [np.size(ys) for ys in seen] == [17]
            monkeypatch.undo()

    def test_log_modulus_gate_samples_once(self, monkeypatch):
        # Cantor K = 5.209 fails the Holder out-of-sample check and every
        # log-modulus bound; the beta = 2 family fails the Holder check and
        # passes at beta = 1.5.  The log gate reads 2^-4 .. 2^-20 from the
        # shared sample and samples only 2^-21 .. 2^-40.
        for F, rule in [(cantor_cdf(standard_cantor_spec(5.209)), "EnergyDirect"),
                        (cantor_cdf(general_ratio_spec(2.0)), "LogModulus")]:
            seen = self._spy(monkeypatch, "sampled_modulus")
            v = classify_membership(F)
            assert v.rule == rule
            assert [np.size(ys) for ys in seen] == [17, 20]
            assert np.array_equal(np.concatenate(seen), 2.0 ** -np.arange(4, 41.0))
            monkeypatch.undo()

    def test_log_gate_starts_inside_the_shared_sample(self):
        # the weakest bound's first scale 2^-4 (beta = 1.5) is the first
        # fitting scale, so the gate's scales 2^-j0 .. 2^-40 continue the
        # classifier's sample with none missing
        betas = criteria_mod.LOG_MODULUS_BETAS
        j0s = [int(math.ceil(-math.log2(math.exp(-(b + 1.0))))) for b in betas]
        assert (betas[0], min(j0s)) == (1.5, 4)
        assert min(j0s) == criteria_mod.DEFAULT_FIT_RANGE[0]
        # and its witness is that of a sample of its own
        F = cantor_cdf(general_ratio_spec(2.0))
        v = classify_membership(F)
        own = log_modulus_checks(F, betas)[0]
        assert (v.rule, v.witness) == ("LogModulus", {"beta": 1.5, **{
            k: own[k] for k in ("eps_used", "worst_ratio")}})

    @pytest.mark.parametrize("F", [
        uniform_cdf(), cantor_cdf(general_ratio_spec(2.0)),
        cantor_cdf(standard_cantor_spec(3.0)), power_law_cdf(1.0, 0.5, 1.0)],
        ids=["uniform", "beta2", "K3", "power-half"])
    def test_one_sample_gives_the_per_beta_witnesses(self, F):
        reports = criteria_mod.log_modulus_checks(F, criteria_mod.LOG_MODULUS_BETAS)
        for beta, rep in zip(criteria_mod.LOG_MODULUS_BETAS, reports):
            # the test sampled on its own scales 2^-j0 .. 2^-40, as before
            eps = math.exp(-(beta + 1.0))
            ys = 2.0 ** -np.arange(int(math.ceil(-math.log2(eps))), 41, dtype=float)
            worst = float(np.max(criteria_mod.sampled_modulus(F, ys)
                                 * np.abs(np.log(ys)) ** beta))
            assert rep == {"holds": worst <= 1.0 + 1e-9, "eps_used": eps,
                           "worst_ratio": worst}

    def test_grid_only_for_continuous_cdfs(self, monkeypatch):
        seen = self._spy(monkeypatch, "default_modulus_grid")
        v = classify_membership(table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0]))
        assert v.rule == "EnergyDirect"
        assert seen == []
        classify_membership(uniform_cdf())
        assert len(seen) == 1


class TestClassifier:
    def test_uniform_lipschitz(self):
        v = classify_membership(uniform_cdf(0.0, 1.0, 1.0))
        assert v.verdict == MEMBER_CERTIFIED
        assert v.rule == "Lipschitz"
        assert v.witness["alpha"] == pytest.approx(1.0, abs=1e-9)
        assert v.witness["K"] == pytest.approx(1.0, rel=1e-9)
        assert v.witness["energy_bound"] == pytest.approx(2.0, rel=1e-9)

    def test_cantor_holder(self):
        v = classify_membership(cantor_cdf(standard_cantor_spec(3.0)))
        assert v.verdict == MEMBER_CERTIFIED
        assert v.rule == "Holder"
        assert v.witness["energy_bound"] == pytest.approx(2.92217336317331, rel=1e-9)

    def test_staircase_series_divergence(self):
        v = classify_membership(l1_divergent_blocks(50))
        assert v.verdict == DIVERGENCE_CERTIFIED
        assert v.rule == "LowerBoundSeries"
        assert v.witness["partial_sum"] == pytest.approx(50.0, abs=1e-9)
        assert v.witness["n_blocks"] == 50

    def test_short_staircase_is_a_member(self):
        # ten finite blocks, too few for a growth certificate, whose L^2
        # norm is past the double range; block n's self energy is
        # h^2 d^2 (3/2 + 4^n) = 1 + 1.5 * 4^-n and the blocks sit 2 apart
        f10 = l1_divergent_blocks(10)
        assert lp_norm(f10, 2.0) == math.inf
        v = classify_membership(f10)
        assert v.verdict == MEMBER_CERTIFIED
        assert v.rule == "EnergyDirect"
        assert v.witness["value"] == pytest.approx(10.5 - 0.5 * 4.0**-10, rel=1e-12)

    def test_atom_table_energy_divergence(self):
        v = classify_membership(table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0]))
        assert v.verdict == DIVERGENCE_CERTIFIED
        assert v.rule == "EnergyDirect"
        assert v.witness["lower"] == math.inf

    @pytest.mark.parametrize("seed", range(12))
    def test_atom_tables_never_certified_members(self, seed):
        # Several atoms at random positions: the sampled modulus misses jumps
        # that no grid point sits just left of, so the modulus gates used to
        # certify 8 of these 12 tables as members (rule Holder).
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 9))
        xs = np.sort(rng.uniform(-1.0, 1.0, k))
        F = table_cdf(xs, np.cumsum(rng.uniform(0.1, 2.0, k)))
        v = classify_membership(F)
        assert (v.verdict, v.rule) == (DIVERGENCE_CERTIFIED, "EnergyDirect")
        assert v.witness["lower"] == math.inf

    def test_modulus_gates_decline_without_continuity(self):
        # The uniform law is Lipschitz, but without the continuity flag the
        # modulus gates may not certify it; a one-level schedule leaves the
        # energy gate Inconclusive, so the Unknown witness shows every reason.
        F = dataclasses.replace(uniform_cdf(0.0, 1.0, 1.0), continuous=False)
        v = classify_membership(F, QuadratureConfig(depth_schedule=(16,)))
        assert v.verdict == UNKNOWN
        declined = {d["rule"]: d["reason"] for d in v.witness["declined"]}
        for rule in ("Lipschitz", "Holder", "LogModulus"):
            assert declined[rule] == "no continuity certificate"
        assert declined["EnergyDirect"].startswith("Inconclusive")

    def test_thin_family_log_modulus(self):
        v = classify_membership(cantor_cdf(general_ratio_spec(2.0)))
        assert v.verdict == MEMBER_CERTIFIED
        assert v.rule == "LogModulus"
        assert v.witness["beta"] == pytest.approx(1.5)
        assert v.witness["worst_ratio"] == pytest.approx(0.8656243220792096, rel=1e-9)

    def test_power_profiles(self):
        assert classify_membership(power_law_profile(1.0, 0.25, 1.0).G).rule == "Holder"
        assert classify_membership(power_law_profile(1.0, 1.0, 1.0).G).rule == "Lipschitz"

    def test_zero_mass_trivially_member(self):
        v = classify_membership(uniform_cdf(0.0, 1.0, 0.0))
        assert v.verdict == MEMBER_CERTIFIED

    def test_as_dict(self):
        v = classify_membership(uniform_cdf(0.0, 1.0, 1.0))
        d = v.as_dict()
        assert d["verdict"] == MEMBER_CERTIFIED
        assert d["rule"] == "Lipschitz"
