"""Energy engines: two-sided, one-sided, and closed-form density forms."""
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from logmeasure import (
    BadParams,
    Block,
    DiscontinuousInput,
    NonpositiveDistance,
    QuadratureConfig,
    StepDensity,
    VERDICT_DIVERGENT,
    VERDICT_FINITE,
    VERDICT_INCONCLUSIVE,
    cantor_cdf,
    energy_density,
    energy_double_stieltjes,
    energy_one_sided,
    general_ratio_spec,
    holder_energy_bound,
    l1_divergent_blocks,
    logplus_kernel,
    power_law_cdf,
    scale_cdf,
    standard_cantor_spec,
    table_cdf,
    translate_cdf,
    uniform_cdf,
)
import logmeasure.energy as energy_mod
from logmeasure.energy import (
    _BallMass,
    _bracket_sums,
    _centroid_brackets,
    _diag_uppers,
    _trapezoid_log_integral,
)
from logmeasure.measures import KIND_PIECEWISE_LINEAR, MonotoneCDF, _partition_arrays
from oracles import (
    block_energy_oracle,
    bracket_sums_reference,
    cantor_energy_oracle,
    one_sided_uniform_identity,
    power_law_energy_oracle,
    staircase_term_oracle,
    step_density_energy_oracle,
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
        assert est.value == pytest.approx(1.5001773577511441, rel=1e-12)
        assert est.lower == pytest.approx(1.499610500656455, rel=1e-12)
        assert est.upper == pytest.approx(1.500744214845833, rel=1e-12)
        assert est.lower <= 1.5 <= est.upper

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
        assert (d["stop_reason"], d["upper_kind"]) == ("agreement", "modulus")
        assert isinstance(d["trace"], list)


class TestOneSidedPrecondition:
    def test_discontinuous_rejected(self):
        F = table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0])
        with pytest.raises(DiscontinuousInput):
            energy_one_sided(F)

    @pytest.mark.parametrize("schedule", [(16,), (16, 32, 64), (16384,)])
    def test_schedule_outside_outer_range_rejected(self, schedule):
        # the outer partition sizes are taken from [2^8, 2^13] only; a
        # schedule with none of them used to return [0, inf] silently
        with pytest.raises(BadParams):
            energy_one_sided(uniform_cdf(), QuadratureConfig(depth_schedule=schedule))

    def test_single_level_brackets_power_half(self):
        est = energy_one_sided(power_law_cdf(1.0, 0.5, 1.0), QuadratureConfig(depth_schedule=(256,)))
        assert len(est.trace) == 1 and est.trace[0][0] == 256
        assert est.lower <= 3.0 - 2.0 * LN2 <= est.upper
        assert est.upper - est.lower <= 1e-2


class TestOneSidedModulusTail:
    """The y -> 0 tail is 2 J(M, 2^-52) from the double engine's _BallMass."""

    CFG = QuadratureConfig(depth_schedule=(256,))

    @staticmethod
    def _placed(alpha):
        F = power_law_cdf(1.0, alpha, 1.0)
        return [F, translate_cdf(F, 1.7), translate_cdf(F, -1.3)]

    def test_upper_does_not_depend_on_position(self):
        ups = [energy_one_sided(F, self.CFG).upper for F in self._placed(0.08)]
        assert max(ups) - min(ups) <= 1e-6

    def test_moved_upper_carries_the_ball_mass_tail(self):
        F = translate_cdf(power_law_cdf(1.0, 0.08, 1.0), 1.7)
        est = energy_one_sided(F, self.CFG)
        tail = 2.0 * float(_BallMass.of(F).integral(1.0, 2.0**-52))
        # the tail alone is at least what the support edge contributes,
        # int_0^{2^-52} y^(alpha - 1) dy
        assert tail >= 2.0**(-52 * 0.08) / 0.08
        assert est.upper - est.lower >= tail

    def test_no_decay_gives_no_upper_anywhere(self):
        for F in self._placed(0.05):
            assert _BallMass.of(F) is None
            est = energy_one_sided(F, self.CFG)
            assert est.upper == math.inf and est.verdict == VERDICT_INCONCLUSIVE

    def test_never_samples_below_the_table(self, monkeypatch):
        scales = []
        sample = energy_mod.sampled_modulus

        def spy(F, ys, grid=None):
            scales.extend(np.atleast_1d(ys).tolist())
            return sample(F, ys, grid=grid)

        monkeypatch.setattr(energy_mod, "sampled_modulus", spy)
        energy_one_sided(self._placed(0.5)[1], self.CFG)
        assert scales and min(scales) == 2.0**-40


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

    def test_four_blocks_match_psi_oracle(self):
        # a finite block list carries no growth certificate, however much of
        # the diagonal sum its second half holds
        blocks = [(a, 0.1, 2.0) for a in (0.0, 0.2, 0.4, 0.6)]
        f = StepDensity(tuple(Block(a, math.log(d), math.log(h)) for a, d, h in blocks))
        est = energy_density(f)
        assert est.verdict == VERDICT_FINITE
        assert abs(est.value - step_density_energy_oracle(blocks)) <= 1e-9


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

    @pytest.mark.parametrize("n", [11, 12, 30])  # 50 blocks: see above
    def test_staircase_growth_certified(self, n):
        from logmeasure import step_lower_bound

        assert step_lower_bound(l1_divergent_blocks(n))["diverging"]
        assert energy_density(l1_divergent_blocks(n)).verdict == VERDICT_DIVERGENT

    @pytest.mark.parametrize("n", [4, 10])
    def test_short_staircase_carries_no_certificate(self, n):
        # the growth window spans 10 blocks after the first
        from logmeasure import step_lower_bound

        assert not step_lower_bound(l1_divergent_blocks(n))["diverging"]


class TestCheapConfig:
    def test_short_schedule_still_brackets(self):
        cfg = QuadratureConfig(depth_schedule=(16, 32))
        est = energy_double_stieltjes(uniform_cdf(0.0, 1.0, 1.0), cfg)
        assert est.lower <= 1.5 <= est.upper


def _brute_bracket(bounds, masses, cents, lag_lo, lag_hi, s=1, window=None):
    """Per-lag (lower, upper) sums by a double loop over cell pairs (i, i+L).

    Lower terms are Jensen at the largest centroid gap (capped at the span);
    upper terms the chord of the kernel over [gap, span] at the smallest
    centroid gap, and for touching pairs the kernel at the wider cell's
    width or the lower term, whichever is larger.  A window keeps only pairs whose parent cells (groups of s
    consecutive cells) are at most `window` apart.  Also returns the number
    of pairs kept at each lag.
    """
    def k(d):
        return max(-math.log(max(d, 5e-324)), 0.0)

    c_lo, c_hi = cents
    n = len(masses)
    lows, ups, counts = [], [], []
    for L in range(lag_lo, min(lag_hi, n)):
        lo = up = 0.0
        count = 0
        for i in range(n - L):
            j = i + L
            if window is not None and j // s - i // s > window:
                continue
            count += 1
            mm = 2.0 * masses[i] * masses[j]
            span = bounds[j + 1] - bounds[i]
            lo += mm * k(min(c_hi[j] - c_lo[i], span))
            if L == 1:
                wide = max(bounds[i + 1] - bounds[i], bounds[j + 1] - bounds[j])
                up += mm * max(k(wide), k(min(c_hi[j] - c_lo[i], span)))
            else:
                gap = bounds[j] - bounds[i + 1]
                d = max(c_lo[j] - c_hi[i], gap)
                frac = min((d - gap) / max(span - gap, 5e-324), 1.0)
                up += mm * (k(gap) + (k(span) - k(gap)) * frac)
        lows.append(lo)
        ups.append(up)
        counts.append(count)
    return lows, ups, counts


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
        F = self.MEASURES[name]()
        bounds, fvals = _partition_arrays(F, self.N)
        return bounds, np.diff(fvals), _centroid_brackets(F, bounds, fvals, 16)

    @staticmethod
    def _check(got, want):
        lows, ups, pairs = got
        b_lows, b_ups, b_counts = want
        # the kernel may stop early; every lag it skipped must be exactly 0
        assert 0 < len(lows) == len(ups) <= len(b_lows)
        assert pairs == sum(b_counts[: len(lows)])
        assert all(x == 0.0 for x in b_lows[len(lows):] + b_ups[len(ups):])
        assert lows == pytest.approx(b_lows[: len(lows)], rel=1e-12, abs=1e-15)
        assert ups == pytest.approx(b_ups[: len(ups)], rel=1e-12, abs=1e-15)
        for lo, up in zip(lows, ups):
            assert 0.0 <= lo <= up

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("lag_lo", [1, 5])
    def test_all_pairs(self, name, lag_lo):
        bounds, masses, cents = self._partition(name)
        got = _bracket_sums(bounds, masses, cents, lag_lo, self.N)
        self._check(got, _brute_bracket(bounds, masses, cents, lag_lo, self.N))
        if name == "uniform-wide":
            assert len(got[0]) == 17 - lag_lo

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_parent_window_mask(self, name):
        s, window = 4, 3
        bounds, masses, cents = self._partition(name)
        parent = np.arange(self.N) // s

        def keep(L):
            return np.nonzero(parent[L:] - parent[: self.N - L] <= window)[0]

        lag_hi = (window + 1) * s
        got = _bracket_sums(bounds, masses, cents, 1, lag_hi, keep)
        want = _brute_bracket(bounds, masses, cents, 1, lag_hi, s, window)
        self._check(got, want)
        # the window drops pairs at the partial lags
        full = _brute_bracket(bounds, masses, cents, 1, lag_hi)
        assert want[1][-1] < full[1][-1]
        assert got[2] < sum(full[2])


class TestBracketSumsBitIdentical:
    """The buffered lag loop gives the same bits as the unbuffered reference."""

    MEASURES = {
        "uniform": lambda: uniform_cdf(0.0, 1.0, 1.0),
        "power-half": lambda: power_law_cdf(1.0, 0.5, 1.0),
        "cantor3": lambda: cantor_cdf(standard_cantor_spec(3.0)),
    }

    @staticmethod
    def _same(*args):
        got = _bracket_sums(*args)
        want = bracket_sums_reference(*args)
        assert [list(map(float.hex, s)) for s in got[:2]] == [list(map(float.hex, s)) for s in want[:2]]
        assert got[2] == want[2]
        return got

    @staticmethod
    def _cells(F, n, R):
        bounds, fvals = _partition_arrays(F, n)
        return bounds, np.diff(fvals), _centroid_brackets(F, bounds, fvals, R)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("n", [64, 2048])
    def test_coarse_far_field(self, name, n):
        bounds, masses, cents = self._cells(self.MEASURES[name](), n, energy_mod._CENTROID_POINTS)
        lows, _, pairs = self._same(bounds, masses, cents, energy_mod._NEAR_WINDOW + 1, n)
        assert len(lows) == n - energy_mod._NEAR_WINDOW - 1
        k = n - energy_mod._NEAR_WINDOW - 1
        assert pairs == k * (k + 1) // 2

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_near_bucket_call(self, name, monkeypatch):
        """The arguments the near bucket passes, its keep(L) included."""
        calls = []

        def recording(*args):
            calls.append(args)
            return bracket_sums_reference(*args)

        monkeypatch.setattr(energy_mod, "_bracket_sums", recording)
        W, s = energy_mod._NEAR_WINDOW, energy_mod._NEAR_FACTOR
        F = self.MEASURES[name]()
        energy_mod._near_bracket(F, *_partition_arrays(F, 64 * s), 0.0, None)
        (args,) = calls
        bounds, masses, cents, lag_lo, lag_hi, keep = args
        assert (masses.size, lag_lo, lag_hi) == (64 * s, 1, (W + 1) * s)
        # lags up to W s lie inside the window and take all pairs; only the
        # lags beyond it select
        partial = [L for L in range(lag_lo, lag_hi) if keep(L) is not None]
        assert partial and min(partial) == W * s + 1
        lows, _, _ = self._same(*args)
        assert len(lows) == lag_hi - lag_lo

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_from_lag_one(self, name):
        bounds, masses, cents = self._cells(self.MEASURES[name](), 64, 16)
        self._same(bounds, masses, cents, 1, 64)

    @pytest.mark.parametrize("lag_lo", [1, 2, 5])
    def test_early_break(self, lag_lo):
        # support of length 4: gaps leave kernel range from lag 17 on
        bounds, masses, cents = self._cells(uniform_cdf(0.0, 4.0, 1.0), 64, 16)
        lows, _, _ = self._same(bounds, masses, cents, lag_lo, 64)
        assert len(lows) == 17 - lag_lo

    def test_zero_width_cells(self):
        """Atom tables put many quantile targets on one point: zero gaps,
        spans and chord denominators, all clipped to the smallest double."""
        F = table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0])
        bounds, masses, cents = self._cells(F, 64, 16)
        assert np.count_nonzero(np.diff(bounds) == 0.0) > 32
        self._same(bounds, masses, cents, 1, 64)
        self._same(bounds, masses, cents, 3, 64)

    def test_empty_lag_range(self):
        bounds, masses, cents = self._cells(uniform_cdf(0.0, 1.0, 1.0), 16, 16)
        for lag_lo, lag_hi in ((5, 5), (9, 3), (16, 40), (30, 40)):
            assert self._same(bounds, masses, cents, lag_lo, lag_hi) == ([], [], 0)


class TestPairBrackets:
    """Every cell pair's bracket against its exact integral.

    On a measure that is uniform inside each cell, cells i < j carry
    (m_i/w_i)(m_j/w_j) times the trapezoid integral of the kernel over
    [0, w_i] x [0, w_j] at gap g, and a cell's self term is
    m^2 (3/2 + ln(1/w)).  The cells have random widths and masses.
    """

    N = 48

    @pytest.fixture(scope="class")
    def cells(self):
        rng = np.random.default_rng(7)
        widths = rng.uniform(0.5, 1.5, self.N)
        masses = rng.uniform(0.5, 1.5, self.N)
        bounds = np.concatenate(([0.0], np.cumsum(widths / widths.sum())))
        bounds[-1] = 1.0
        fvals = np.concatenate(([0.0], np.cumsum(masses / masses.sum())))
        fvals[-1] = 1.0
        F = MonotoneCDF(0.0, 1.0, 1.0, lambda x: np.interp(x, bounds, fvals),
                        KIND_PIECEWISE_LINEAR, True)
        return F, bounds, np.diff(fvals)

    def _exact(self, bounds, masses, i, j):
        wi, wj = bounds[i + 1] - bounds[i], bounds[j + 1] - bounds[j]
        gap = bounds[j] - bounds[i + 1]
        return masses[i] / wi * masses[j] / wj * _trapezoid_log_integral(gap, wi, wj)

    def test_centroids_bracketed(self, cells):
        F, bounds, masses = cells
        c_lo, c_hi = _centroid_brackets(F, bounds, np.concatenate(([0.0], np.cumsum(masses))), 16)
        mid = 0.5 * (bounds[:-1] + bounds[1:])
        assert np.all(c_lo <= mid) and np.all(mid <= c_hi)
        assert np.all(c_hi - c_lo <= np.diff(bounds) / 16 * (1 + 1e-9))

    def test_each_pair_contains_exact(self, cells):
        F, bounds, masses = cells
        fvals = np.concatenate(([0.0], np.cumsum(masses)))
        cents = _centroid_brackets(F, bounds, fvals, 16)
        for L in range(1, self.N):
            for i in range(self.N - L):
                lows, ups, _ = _bracket_sums(bounds, masses, cents, L, L + 1,
                                             lambda _, i=i: np.array([i]))
                exact = 2.0 * self._exact(bounds, masses, i, i + L)
                assert lows[0] <= exact * (1 + 1e-12), (L, i)
                if L >= 2:
                    assert exact <= ups[0] * (1 + 1e-12), (L, i)

    def test_layer_cake_uppers(self, cells):
        F, bounds, masses = cells
        ball = _BallMass.of(F)
        assert ball is not None
        self_up, touch_up = _diag_uppers(bounds, masses, ball)
        widths = np.diff(bounds)
        self_exact = masses**2 * (1.5 - np.log(widths))
        assert np.all(self_exact <= self_up)
        for i in range(self.N - 1):
            assert 2.0 * self._exact(bounds, masses, i, i + 1) <= touch_up[i], i


class TestLineEnergiesContained:
    """The double engine's converged bracket contains the exact energy."""

    CASES = {
        "uniform": (lambda: uniform_cdf(0.0, 1.0, 1.0), lambda: 1.5),
        "power-half": (lambda: power_law_cdf(1.0, 0.5, 1.0), lambda: 3.0 - 2.0 * LN2),
        "cantor3": (lambda: cantor_cdf(standard_cantor_spec(3.0)), lambda: cantor_energy_oracle(3.0)),
        "cantor4": (lambda: cantor_cdf(standard_cantor_spec(4.0)), lambda: cantor_energy_oracle(4.0)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_converged_bracket_contains_exact(self, name):
        make, exact = self.CASES[name]
        est = energy_double_stieltjes(make())
        assert est.verdict == VERDICT_FINITE
        assert est.stop_reason == "agreement"
        assert est.upper_kind == "modulus"
        assert est.lower <= exact() <= est.upper
        # the ladder now stops in the hundreds to low thousands
        assert est.trace[-1][0] <= 2048

    @pytest.mark.parametrize("name,n_stop", [("uniform", 512), ("power-half", 2048),
                                             ("cantor3", 1024)])
    def test_default_stop_levels(self, name, n_stop):
        # the near window keeps every one of these stop levels
        est = energy_double_stieltjes(self.CASES[name][0]())
        assert est.trace[-1][0] == n_stop


class TestPowerLawEnergiesContained:
    """The double engine's bracket contains the closed-form energy of
    x^alpha on [0, R], slow-decay exponents and heuristic uppers included."""

    @pytest.mark.parametrize("R", [1.0, 0.5])
    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.2, 0.05])
    def test_bracket_contains_exact(self, alpha, R):
        lo, hi = power_law_energy_oracle(alpha, R)
        est = energy_double_stieltjes(power_law_cdf(1.0, alpha, R))
        assert est.verdict == VERDICT_FINITE
        assert est.lower <= hi and lo <= est.upper


class TestWorkRecord:
    """The double engine records the cell pairs each round bracketed."""

    W, S = energy_mod._NEAR_WINDOW, energy_mod._NEAR_FACTOR

    def test_pair_counts_at_64(self):
        est = energy_double_stieltjes(uniform_cdf(), QuadratureConfig(depth_schedule=(64,)))
        (work,) = est.work
        # fine pairs i < j whose parent cells are at most W apart, and
        # coarse pairs more than W apart
        parent = np.arange(64 * self.S) // self.S
        dist = parent[None, :] - parent[:, None]
        upper = np.triu(np.ones(dist.shape, dtype=bool), 1)
        near = int(np.count_nonzero(upper & (dist <= self.W)))
        lag = np.arange(64)[None, :] - np.arange(64)[:, None]
        far = int(np.count_nonzero(lag > self.W))
        assert work == (64, near, far)

    def test_one_entry_per_round(self):
        est = energy_double_stieltjes(power_law_cdf(1.0, 0.5, 1.0))
        assert [w[0] for w in est.work] == [t[0] for t in est.trace]
        # the 16-fold partition within 8 parent cells at n = 2048
        assert est.work[-1] == (2048, 4430848, 2039 * 2040 // 2)
        assert est.as_dict()["work"] == [list(w) for w in est.work]

    def test_atom_round_is_recorded(self):
        # the near bucket finds the atom before any far field is summed
        est = energy_double_stieltjes(table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0]))
        assert est.stop_reason == "atom"
        assert len(est.work) == len(est.trace)
        assert est.work[-1] == (est.trace[-1][0], 0, 0)
        assert energy_double_stieltjes(table_cdf([0.3], [1.2])).work == ((16, 0, 0),)

    def test_one_partition_per_round(self, monkeypatch):
        """The round's coarse cells are every S-th fine boundary of the one
        partition it builds, so the near and far buckets nest."""
        sizes, far = [], []
        partition, bracket_sums = energy_mod._partition_arrays, energy_mod._bracket_sums

        def partition_spy(F, n):
            sizes.append(n)
            return partition(F, n)

        def bracket_spy(bounds, masses, cents, lag_lo, lag_hi, keep=None):
            if keep is None:
                far.append(bounds)
            return bracket_sums(bounds, masses, cents, lag_lo, lag_hi, keep)

        monkeypatch.setattr(energy_mod, "_partition_arrays", partition_spy)
        monkeypatch.setattr(energy_mod, "_bracket_sums", bracket_spy)
        F = power_law_cdf(1.0, 0.5, 1.0)
        est = energy_double_stieltjes(F)
        rounds = [t[0] for t in est.trace]
        assert sizes == [n * self.S for n in rounds]
        assert [b.size - 1 for b in far] == rounds
        for n, bounds in zip(rounds, far):
            assert np.array_equal(bounds, partition(F, n * self.S)[0][:: self.S])

    @pytest.mark.parametrize("F", [
        uniform_cdf(-0.3, 0.61, 1.7), power_law_cdf(1.0, 0.5, 1.0),
        power_law_cdf(1.3, 0.05, 0.7), cantor_cdf(standard_cantor_spec(3.0)),
        cantor_cdf(general_ratio_spec(2.0)), cantor_cdf(general_ratio_spec(3.0)),
        table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0])],
        ids=["uniform", "power-half", "power-0.05", "K3", "beta2", "beta3", "table"])
    def test_coarse_slice_is_the_coarse_partition(self, F):
        # M (S j) / (S n) = M j / n exactly for S a power of two, quantiles
        # and bisection act elementwise, so the slice is bit-identical to a
        # partition of its own
        for n in (16, 64, 1024):
            bounds, fvals = _partition_arrays(F, n * self.S)
            want = _partition_arrays(F, n)
            assert np.array_equal(bounds[:: self.S], want[0])
            assert np.array_equal(fvals[:: self.S], want[1])

    def test_other_engines_leave_it_empty(self):
        assert energy_one_sided(uniform_cdf()).work == ()
        assert energy_density(StepDensity((Block(0.0, 0.0, LN2),))).work == ()


class TestStopRecord:
    """Every estimate names why its engine stopped and what its upper is."""

    def test_schedule_exhausted(self):
        est = energy_double_stieltjes(uniform_cdf(), QuadratureConfig(depth_schedule=(16,)))
        assert est.verdict == VERDICT_INCONCLUSIVE
        assert (est.stop_reason, est.upper_kind) == ("schedule_exhausted", "modulus")

    def test_atom(self):
        est = energy_double_stieltjes(table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0]))
        assert est.verdict == VERDICT_DIVERGENT
        assert (est.stop_reason, est.upper_kind) == ("atom", "heuristic")

    def test_budget(self):
        cfg = QuadratureConfig(depth_schedule=(64,), divergence_budget=0.5)
        est = energy_double_stieltjes(uniform_cdf(), cfg)
        assert (est.verdict, est.stop_reason) == (VERDICT_DIVERGENT, "budget")

    def test_density_exact(self):
        est = energy_density(StepDensity((Block(0.0, 0.0, LN2),)))
        assert (est.stop_reason, est.upper_kind) == ("agreement", "exact")
        est = energy_density(l1_divergent_blocks(50))
        assert (est.stop_reason, est.upper_kind) == ("series_growth", "exact")


def test_results_do_not_depend_on_blas_threads():
    code = (
        "import logmeasure as lm\n"
        "for F in (lm.uniform_cdf(), lm.cantor_cdf(lm.standard_cantor_spec(3.0))):\n"
        "    print(repr(lm.energy_double_stieltjes(F)))\n"
        "    print(repr(lm.energy_one_sided(F)))\n"
    )
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        r = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("FiniteConverged") == 4


def test_column_sums_do_not_depend_on_block_size(monkeypatch):
    F = cantor_cdf(standard_cantor_spec(3.0))
    rng = np.random.default_rng(0)
    xs = np.sort(rng.uniform(0.0, 1.0, 512))
    ys = 2.0 ** -rng.uniform(0.0, 52.0, 100)
    whole = energy_mod._column_sums(F, xs, ys)
    monkeypatch.setattr(energy_mod, "_EVAL_BLOCK_POINTS", 7 * 512)
    assert energy_mod._column_sums(F, xs, ys).tobytes() == whole.tobytes()
    singles = [energy_mod._column_sums(F, xs, ys[j : j + 1])[0] for j in range(ys.size)]
    assert np.array(singles).tobytes() == whole.tobytes()


def test_centroid_brackets_do_not_depend_on_block_size(monkeypatch):
    F = cantor_cdf(standard_cantor_spec(3.0))
    bounds, fvals = _partition_arrays(F, 1000)
    for R in (16, 256):
        whole = _centroid_brackets(F, bounds, fvals, R)
        # 7 cells per block (1000 is no multiple of 7), then one block of all
        for points in (7 * R, 1 << 20):
            monkeypatch.setattr(energy_mod, "_EVAL_BLOCK_POINTS", points)
            got = _centroid_brackets(F, bounds, fvals, R)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in whole]
        monkeypatch.undo()


def test_evaluator_calls_stay_within_the_block():
    """Both line engines feed the Cantor evaluator cache-sized blocks: no
    call, on either side of a column sum, takes more than
    _EVAL_BLOCK_POINTS points (larger blocks cost more per point)."""
    F = cantor_cdf(standard_cantor_spec(3.0))
    sizes = []

    def recording(x):
        sizes.append(np.size(x))
        return F.evaluator(x)

    G = dataclasses.replace(F, evaluator=recording)
    for engine in (energy_one_sided, energy_double_stieltjes):
        sizes.clear()
        assert engine(G).verdict == VERDICT_FINITE
        assert sum(sizes) > 20 * energy_mod._EVAL_BLOCK_POINTS
        assert max(sizes) <= energy_mod._EVAL_BLOCK_POINTS
    assert energy_mod._EVAL_BLOCK_POINTS == 1 << 15


def test_one_sided_evaluates_each_column_once_per_level(monkeypatch):
    """Each outer level asks F for 2 n |ys| points, |ys| the level's final
    inner-grid size: every y column is evaluated once, on the new y values
    only, and kept while the grid is refined."""
    F = cantor_cdf(standard_cantor_spec(3.0))
    points = [0]

    def counting(x):
        points[0] += np.size(x)
        return F.evaluator(x)

    calls = []  # (n, columns, points asked for) per column-sum call
    column_sums = energy_mod._column_sums

    def recording(G, xs, ys):
        before = points[0]
        out = column_sums(G, xs, ys)
        calls.append((xs.size, ys.copy(), points[0] - before))
        return out

    monkeypatch.setattr(energy_mod, "_column_sums", recording)
    est = energy_one_sided(dataclasses.replace(F, evaluator=counting))
    assert est.verdict == VERDICT_FINITE
    levels = [n for n, _, _ in est.trace]
    assert sorted({n for n, _, _ in calls}) == levels

    grids, old_count, new_count = {}, 0, 0
    for n in levels:
        mine = [(cols, pts) for m, cols, pts in calls if m == n]
        for cols, pts in mine:
            assert pts == 2 * n * cols.size
        union = np.concatenate([cols for cols, _ in mine])
        assert np.unique(union).size == union.size  # no column twice
        grids[n] = np.unique(union)
        new_count += 2 * n * union.size
        # what re-evaluating the whole grid at every inner refinement costs
        old_count += sum(2 * n * size for size in np.cumsum([c.size for c, _ in mine]))
    # the grid a level ends with is the one the next level starts from
    for a, b in zip(levels, levels[1:]):
        first = next(cols for m, cols, _ in calls if m == b)
        assert np.array_equal(first, grids[a])
    # all points asked for, the modulus tail bound's included
    assert points[0] <= 0.7 * (points[0] - new_count + old_count)
