"""Energy engines: two-sided, one-sided, and closed-form density forms."""
import math

import numpy as np
import pytest

from logmeasure import (
    Block,
    DiscontinuousInput,
    NonpositiveDistance,
    QuadratureConfig,
    StepDensity,
    VERDICT_DIVERGENT,
    VERDICT_FINITE,
    cantor_cdf,
    energy_density,
    energy_double_stieltjes,
    energy_one_sided,
    holder_energy_bound,
    l1_divergent_blocks,
    logplus_kernel,
    scale_cdf,
    standard_cantor_spec,
    table_cdf,
    translate_cdf,
    uniform_cdf,
)
from logmeasure.energy import _bracket_sums
from logmeasure.measures import _partition_arrays
from oracles import (
    block_energy_oracle,
    one_sided_uniform_identity,
    staircase_term_oracle,
    uniform_energy_oracle,
)

LN2 = math.log(2.0)


class TestKernel:
    def test_values(self):
        assert logplus_kernel(1.0) == 0.0
        assert logplus_kernel(2.0) == 0.0  # clipped at zero beyond distance 1
        assert logplus_kernel(0.5) == pytest.approx(LN2)
        assert logplus_kernel(math.exp(-1.0)) == pytest.approx(1.0)

    def test_value_grid(self):
        # scalar contract: one positive distance in, one kernel value out
        for s, expected in [(0.1, math.log(10.0)), (1.0, 0.0), (3.0, 0.0)]:
            assert logplus_kernel(s) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveDistance):
            logplus_kernel(0.0)
        with pytest.raises(NonpositiveDistance):
            logplus_kernel(-1.0)


class TestHolderBound:
    def test_closed_form(self):
        # bound = 2 K / alpha * mass
        assert holder_energy_bound(1.0, 1.0, 1.0) == pytest.approx(2.0)
        assert holder_energy_bound(1.0, 0.5, 1.0) == pytest.approx(4.0)
        assert holder_energy_bound(2.0, 0.5, 3.0) == pytest.approx(24.0)


class TestUniformEnergy:
    """The uniform unit measure on [0,1] has energy exactly 3/2."""

    def test_double_engine_frozen(self):
        est = energy_double_stieltjes(uniform_cdf(0.0, 1.0, 1.0))
        assert est.verdict == VERDICT_FINITE
        assert est.value == pytest.approx(1.4999439046818674, rel=1e-12)
        assert est.lower == pytest.approx(1.4993703429294105, rel=1e-12)
        assert est.upper == pytest.approx(1.5005174664343244, rel=1e-12)
        assert est.lower <= est.value <= est.upper

    def test_double_engine_vs_oracles(self):
        est = energy_double_stieltjes(uniform_cdf(0.0, 1.0, 1.0))
        assert abs(est.value - 1.5) <= 1e-3
        assert abs(est.value - uniform_energy_oracle(2048)) <= 1e-3

    def test_one_sided_engine(self):
        est = energy_one_sided(uniform_cdf(0.0, 1.0, 1.0))
        assert est.verdict == VERDICT_FINITE
        assert est.value == pytest.approx(1.5000010378948834, rel=1e-12)
        assert abs(est.value - one_sided_uniform_identity()) <= 1e-3

    def test_engines_agree(self):
        d = energy_double_stieltjes(uniform_cdf(0.0, 1.0, 1.0))
        o = energy_one_sided(uniform_cdf(0.0, 1.0, 1.0))
        assert abs(d.value - o.value) <= 2e-3

    def test_trace_shape(self):
        est = energy_double_stieltjes(uniform_cdf(0.0, 1.0, 1.0))
        assert len(est.trace) >= 2
        for n, lo, up in est.trace:
            assert lo <= up

    def test_as_dict(self):
        est = energy_double_stieltjes(uniform_cdf(0.0, 1.0, 1.0))
        d = est.as_dict()
        assert d["verdict"] == VERDICT_FINITE
        assert isinstance(d["trace"], list)


class TestOneSidedPrecondition:
    def test_discontinuous_rejected(self):
        F = table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0])
        with pytest.raises(DiscontinuousInput):
            energy_one_sided(F)


class TestTransformsOfEnergy:
    def test_mass_scaling_is_quadratic(self):
        F = uniform_cdf(0.0, 1.0, 1.0)
        base = energy_double_stieltjes(F)
        scaled = energy_double_stieltjes(scale_cdf(F, 2.0))
        assert scaled.value == pytest.approx(4.0 * base.value, rel=2e-3)

    def test_translation_invariance(self):
        F = uniform_cdf(0.0, 1.0, 1.0)
        base = energy_double_stieltjes(F)
        moved = energy_double_stieltjes(translate_cdf(F, 3.25))
        assert moved.value == pytest.approx(base.value, rel=2e-3)


class TestDensityEngine:
    def test_single_block_closed_form(self):
        # density 2 on [0,1]: energy = 4 * 3/2 = 6, computed in closed form
        f = StepDensity((Block(0.0, 0.0, LN2),))
        est = energy_density(f)
        assert est.verdict == VERDICT_FINITE
        assert est.value == pytest.approx(6.0, rel=1e-12)
        assert est.lower == est.upper == est.value
        assert est.value == pytest.approx(block_energy_oracle(2.0, 1.0), rel=1e-3)

    def test_far_blocks_do_not_interact(self):
        # kernel vanishes beyond distance 1, so two unit blocks >= 1 apart
        # contribute exactly twice the single-block self-energy
        f = StepDensity((Block(0.0, 0.0, 0.0), Block(3.0, 0.0, 0.0)))
        est = energy_density(f)
        assert est.value == pytest.approx(2.0 * 1.5, rel=1e-12)

    def test_divergent_staircase(self):
        est = energy_density(l1_divergent_blocks(50))
        assert est.verdict == VERDICT_DIVERGENT
        assert est.lower == math.inf


class TestStepLowerBound:
    def test_terms_are_exactly_one(self):
        from logmeasure import step_lower_bound

        res = step_lower_bound(l1_divergent_blocks(50))
        assert len(res["terms"]) == 50
        for t in res["terms"]:
            assert abs(t - 1.0) <= 1e-12
        assert res["terms"][49] == pytest.approx(0.9999999999999983, rel=1e-15)
        assert res["partial_sum"] == pytest.approx(50.0, abs=1e-9)
        assert res["diverging"]

    def test_terms_match_arithmetic_oracle(self):
        from logmeasure import step_lower_bound

        res = step_lower_bound(l1_divergent_blocks(12))
        for n, t in enumerate(res["terms"], start=1):
            assert t == pytest.approx(staircase_term_oracle(n), rel=1e-12)


class TestCheapConfig:
    def test_short_schedule_still_brackets(self):
        cfg = QuadratureConfig(depth_schedule=(16, 32))
        est = energy_double_stieltjes(uniform_cdf(0.0, 1.0, 1.0), cfg)
        assert est.lower <= 1.5 <= est.upper


def _brute_bracket(bounds, masses, lag_lo, lag_hi, s=1, window=None):
    """Per-lag (lower, upper) sums by a double loop over cell pairs (i, i+L).

    Lower terms use the pair's span, upper terms its gap, touching pairs the
    wider cell's width; a window keeps only pairs whose parent cells (groups
    of s consecutive cells) are at most `window` apart.
    """
    def k(d):
        return max(-math.log(max(d, 5e-324)), 0.0)

    n = len(masses)
    lows, ups = [], []
    for L in range(lag_lo, min(lag_hi, n)):
        lo = up = 0.0
        for i in range(n - L):
            j = i + L
            if window is not None and j // s - i // s > window:
                continue
            mm = 2.0 * masses[i] * masses[j]
            lo += mm * k(bounds[j + 1] - bounds[i])
            if L == 1:
                up += mm * k(max(bounds[i + 1] - bounds[i], bounds[j + 1] - bounds[j]))
            else:
                up += mm * k(bounds[j] - bounds[i + 1])
        lows.append(lo)
        ups.append(up)
    return lows, ups


class TestBracketKernel:
    """The shared lag kernel against an O(n^2) pair loop on one partition."""

    N = 64
    MEASURES = {
        "uniform": lambda: uniform_cdf(0.0, 1.0, 1.0),
        "cantor3": lambda: cantor_cdf(standard_cantor_spec(3.0)),
        # support of length 4: gaps leave kernel range from lag 17 on
        "uniform-wide": lambda: uniform_cdf(0.0, 4.0, 1.0),
    }

    def _partition(self, name):
        bounds, fvals = _partition_arrays(self.MEASURES[name](), self.N)
        return bounds, np.diff(fvals)

    @staticmethod
    def _check(got, want):
        lows, ups = got
        b_lows, b_ups = want
        # the kernel may stop early; every lag it skipped must be exactly 0
        assert 0 < len(lows) == len(ups) <= len(b_lows)
        assert all(x == 0.0 for x in b_lows[len(lows):] + b_ups[len(ups):])
        assert lows == pytest.approx(b_lows[: len(lows)], rel=1e-12, abs=1e-15)
        assert ups == pytest.approx(b_ups[: len(ups)], rel=1e-12, abs=1e-15)
        for lo, up in zip(lows, ups):
            assert 0.0 <= lo <= up

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("lag_lo", [1, 5])
    def test_all_pairs(self, name, lag_lo):
        bounds, masses = self._partition(name)
        got = _bracket_sums(bounds, masses, lag_lo, self.N)
        self._check(got, _brute_bracket(bounds, masses, lag_lo, self.N))
        if name == "uniform-wide":
            assert len(got[0]) == 17 - lag_lo

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_parent_window_mask(self, name):
        s, window = 4, 3
        bounds, masses = self._partition(name)
        parent = np.arange(self.N) // s

        def keep(L):
            return np.nonzero(parent[L:] - parent[: self.N - L] <= window)[0]

        lag_hi = (window + 1) * s
        got = _bracket_sums(bounds, masses, 1, lag_hi, keep)
        want = _brute_bracket(bounds, masses, 1, lag_hi, s, window)
        self._check(got, want)
        # the window drops pairs at the partial lags
        full = _brute_bracket(bounds, masses, 1, lag_hi)
        assert want[1][-1] < full[1][-1]
