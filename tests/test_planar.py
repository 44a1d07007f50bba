"""Planar measures: radial reduction, energy families, velocity fields."""
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import logmeasure.planar as planar_mod

from logmeasure import (
    AtomOnGrid,
    BadParams,
    EmptyMeasure,
    GridSpec,
    MalformedInterval,
    RegionOutsideGrid,
    TooFewPoints,
    VERDICT_DIVERGENT,
    VERDICT_FINITE,
    VERDICT_INCONCLUSIVE,
    QuadratureConfig,
    arcsin_profile_cdf,
    biot_savart,
    blob_approximation,
    cantor_cdf,
    circle_measure,
    dirac_at,
    energy_double_stieltjes,
    energy_planar,
    line_measure,
    local_kinetic_energy,
    planar_measure,
    power_law_cdf,
    power_law_profile,
    radial_cdf,
    radial_inequality_check,
    radial_pushforward_check,
    standard_cantor_spec,
    uniform_cdf,
)
from oracles import (
    AtomOnGridReference,
    annulus_kinetic_oracle,
    arcsin_profile_oracle,
    biot_savart_direct_reference,
    biot_savart_oracle,
    cantor_energy_oracle,
    circle_energy_bruteforce_oracle,
    circle_energy_limit_oracle,
    circle_r2_moment_oracle,
    pair_lower_oracle,
    pair_lower_reference,
    radial_inequality_reference,
)

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


def random_cloud(n, half_width, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-half_width, half_width, (n, 2)), rng.uniform(0.1, 1.0, n)


class TestConstructors:
    def test_circle_four_points_frozen(self):
        P = circle_measure(4)
        # atoms sit at angles 1 + 2 pi k/4: the fixed 1-radian offset keeps
        # the set free of reflection symmetries about any projection center
        expected = [
            [math.cos(1.0), math.sin(1.0)],
            [math.cos(1.0 + math.pi / 2), math.sin(1.0 + math.pi / 2)],
            [math.cos(1.0 + math.pi), math.sin(1.0 + math.pi)],
            [math.cos(1.0 + 3 * math.pi / 2), math.sin(1.0 + 3 * math.pi / 2)],
        ]
        np.testing.assert_allclose(P.points, expected, atol=1e-15)
        np.testing.assert_allclose(P.weights, [0.25] * 4)

    def test_circle_radii_distinct_from_axis_point(self):
        P = circle_measure(64)
        r = np.hypot(P.points[:, 0] - 1.0, P.points[:, 1])
        assert len(np.unique(r)) == 64

    def test_circle_needs_three_points(self):
        with pytest.raises(TooFewPoints):
            circle_measure(2)

    def test_dirac(self):
        P = dirac_at((0.25, -0.5), 2.0)
        assert P.n_atoms == 1
        assert P.total_mass == pytest.approx(2.0)
        np.testing.assert_allclose(P.points, [[0.25, -0.5]])

    def test_line_measure_midpoints(self):
        P = line_measure(uniform_cdf(0.0, 1.0, 1.0), 8)
        np.testing.assert_allclose(P.points[:, 1], 0.0)
        np.testing.assert_allclose(
            P.points[:, 0], (np.arange(8) + 0.5) / 8.0, atol=1e-12)
        assert P.total_mass == pytest.approx(1.0)

    def test_weights_validated(self):
        with pytest.raises(BadParams):
            planar_measure([[0.0, 0.0]], [-1.0])

    def test_power_law_profile(self):
        prof = power_law_profile(1.0, 0.5, 1.0)
        assert prof.center == (0.0, 0.0)
        assert prof.G.total_mass == pytest.approx(1.0)
        assert prof.G(0.25) == pytest.approx(0.5)


class TestRadialCDF:
    @pytest.mark.parametrize("n,err", [
        (64, 0.009813953112659077),
        (256, 0.002001669046653387),
        (1024, 0.0009270191094414848),
    ])
    def test_circle_matches_arcsin_profile(self, n, err):
        G = radial_cdf(circle_measure(n), (1.0, 0.0)).G
        rs = np.linspace(0.0, 2.0, 4097)
        sup = float(np.max(np.abs(G(rs) - arcsin_profile_oracle(rs))))
        assert sup == pytest.approx(err, rel=1e-9)
        assert sup <= 2.0 / n

    def test_arcsin_reference_consistent(self):
        F = arcsin_profile_cdf()
        rs = np.linspace(0.0, 2.0, 257)
        np.testing.assert_allclose(F(rs), arcsin_profile_oracle(rs), atol=1e-12)

    def test_profile_is_probability(self):
        G = radial_cdf(circle_measure(100), (1.0, 0.0)).G
        assert G.total_mass == pytest.approx(1.0)
        assert G.support_lo >= 0.0
        assert G.support_hi <= 2.0 + 1e-12

    def test_empty_rejected(self):
        P = planar_measure(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(EmptyMeasure):
            radial_cdf(P, (0.0, 0.0))


class TestPushforward:
    @pytest.mark.parametrize("tag,lhs", [
        ("r^2", 2.0),
        ("min(r,1)", 0.8371658540367293),
        ("1", 1.0),
    ])
    def test_identities_exact(self, tag, lhs):
        res = radial_pushforward_check(circle_measure(100), (1.0, 0.0), tag)
        assert res["lhs"] == pytest.approx(lhs, rel=1e-12)
        assert res["gap"] == 0.0

    def test_r2_moment_matches_oracle(self):
        res = radial_pushforward_check(circle_measure(100), (1.0, 0.0), "r^2")
        assert res["lhs"] == pytest.approx(circle_r2_moment_oracle(100), rel=1e-12)

    def test_aliases(self):
        P = circle_measure(32)
        for alias, canon in (("r2", "r^2"), ("min", "min(r,1)"), ("one", "1")):
            a = radial_pushforward_check(P, (0.5, 0.5), alias)
            c = radial_pushforward_check(P, (0.5, 0.5), canon)
            assert a["lhs"] == c["lhs"]

    def test_unknown_tag(self):
        with pytest.raises(BadParams):
            radial_pushforward_check(circle_measure(8), (0.0, 0.0), "r^3")


class TestRadialInequality:
    @pytest.mark.parametrize("n,lhs,rhs", [
        (64, 0.25815902532562696, 0.8567415484127838),
        (128, 0.2851776772376721, 0.8960486579898428),
        (256, 0.30140973947165384, 0.9150494397318019),
    ])
    def test_circle_frozen(self, n, lhs, rhs):
        res = radial_inequality_check(circle_measure(n), (1.0, 0.0))
        assert res["lhs_lower"] == pytest.approx(lhs, rel=1e-12)
        assert res["rhs_lower"] == pytest.approx(rhs, rel=1e-12)
        assert res["holds_pointwise"]
        assert res["lhs_lower"] <= res["rhs_lower"]

    def test_center_projection_diverges(self):
        # all circle radii collapse onto (essentially) one distance from the
        # center, so the projected energy is infinite while lhs stays put
        res = radial_inequality_check(circle_measure(256), (0.0, 0.0))
        assert res["lhs_lower"] == pytest.approx(0.30140973947165384, rel=1e-12)
        assert res["rhs_lower"] == math.inf
        assert res["holds_pointwise"]

    def test_antipodal_pair(self):
        P = planar_measure([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
        res = radial_inequality_check(P, (0.0, 0.0))
        assert res["lhs_lower"] == 0.0  # the atoms are distance 2 > 1 apart
        assert res["rhs_lower"] == math.inf  # equal radii collapse
        assert res["holds_pointwise"]


class TestPairSums:
    """_pair_lower against the term-by-term oracle.  The sizes straddle the
    512-row blocks, which visit only j >= i0, and the sub-blocks of at most
    _BLOCK_ELEMENTS entries that each block is computed in."""

    # half width 3: most pairs are more than 1 apart and their terms vanish
    @pytest.mark.parametrize("n,half_width", [
        (1, 0.5), (2, 0.5), (3, 0.5), (511, 0.5), (512, 0.5), (513, 0.5), (1100, 0.5),
        (700, 3.0),
    ])
    def test_matches_bruteforce(self, n, half_width):
        pts, ws = random_cloud(n, half_width, seed=n)
        want = pair_lower_oracle(pts, ws)
        # summed in blocks, rows, then vector lanes: n eps per term bounds
        # the accumulation error of nonnegative terms
        assert abs(planar_mod._pair_lower(pts, ws) - want) <= 4 * n * EPS * want

    def test_coincident_pair_in_last_block_is_infinite(self):
        pts, ws = random_cloud(1100, 0.5, seed=11)
        pts[1099] = pts[1030]  # both rows in the last block [1024, 1100)
        assert planar_mod._pair_lower(pts, ws) == math.inf
        assert pair_lower_oracle(pts, ws) == math.inf

    def test_halved_cloud_sums_no_smaller(self):
        # halving is exact and shrinks every distance, so every term grows;
        # equal lengths are summed in the same order across the block
        # boundaries, so the sums are ordered with no tolerance
        pts, ws = random_cloud(1100, 2.0, seed=13)
        assert planar_mod._pair_lower(0.5 * pts, ws) >= planar_mod._pair_lower(pts, ws)


# Sizes around the 512-row blocks and the sub-block row counts
# _BLOCK_ELEMENTS // (n - i0): 256 and 512 rows split evenly, 257 and 513
# leave a short last sub-block, 4097 a one-row last block.
BIT_IDENTITY_SIZES = [1, 2, 3, 7, 128, 129, 256, 257, 511, 512, 513, 1030, 1100, 2049, 4097]


class TestPairWalkBitIdentical:
    """The sub-blocked walk gives exactly the sums of whole 512-row blocks
    (tests/oracles.py keeps that walk)."""

    @pytest.mark.parametrize("n", BIT_IDENTITY_SIZES)
    def test_pair_lower(self, n):
        pts, ws = random_cloud(n, 0.5, seed=n)
        assert planar_mod._pair_lower(pts, ws) == pair_lower_reference(pts, ws)

    @pytest.mark.parametrize("n", BIT_IDENTITY_SIZES)
    def test_radial_inequality(self, n):
        pts, ws = random_cloud(n, 0.5, seed=n + 1)
        x0 = (0.1, -0.2)
        got = radial_inequality_check(planar_measure(pts, ws), x0)
        assert got == radial_inequality_reference(pts, ws, x0)

    @pytest.mark.parametrize("n", [64, 256, 1024, 1100])
    @pytest.mark.parametrize("x0", [(1.0, 0.0), (0.0, 0.0)])
    def test_radial_inequality_on_circles(self, n, x0):
        P = circle_measure(n)
        want = radial_inequality_reference(P.points, P.weights, x0)
        assert radial_inequality_check(P, x0) == want

    # rows 1030 and 1099 share the last block of 1100 atoms; rows 1900 and
    # 2000 lie in different sub-blocks of the block [1536, 2048)
    @pytest.mark.parametrize("n,i,j", [(1100, 1030, 1099), (2049, 1900, 2000)])
    def test_coincident_pair(self, n, i, j):
        pts, ws = random_cloud(n, 0.5, seed=n)
        pts[j] = pts[i]
        assert planar_mod._pair_lower(pts, ws) == math.inf
        assert pair_lower_reference(pts, ws) == math.inf
        x0 = (0.1, -0.2)
        got = radial_inequality_check(planar_measure(pts, ws), x0)
        want = radial_inequality_reference(pts, ws, x0)
        assert got["lhs_lower"] == got["rhs_lower"] == math.inf
        assert got == want


class TestPairWalkMemory:
    """The pair walk's peak allocation is a few _BLOCK_ELEMENTS-entry blocks,
    where whole 512-row blocks of a 4096-atom cloud peak at about 60 MiB."""

    BOUND = 16 * planar_mod._BLOCK_ELEMENTS * 8  # 16 float blocks: 8 MiB

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pair_lower(self):
        pts, ws = random_cloud(4096, 0.5, seed=4096)
        assert self._peak(lambda: planar_mod._pair_lower(pts, ws)) < self.BOUND

    def test_radial_inequality(self):
        P = circle_measure(4096)
        assert self._peak(lambda: radial_inequality_check(P, (1.0, 0.0))) < self.BOUND


class TestCircleClassSums:
    """Circle levels are summed by rotation class, n - 1 kernels each."""

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 64, 100, 1100, 4096])
    def test_matches_walk_reference(self, n):
        P = circle_measure(n)
        got, evals = planar_mod._circle_pair_lower(P)
        want = pair_lower_reference(P.points, P.weights)
        # equal in real arithmetic; the float atoms are symmetric only up to
        # rounding (n <= 5 has every pair at least 1 apart: both sums are 0)
        assert abs(got - want) <= n * EPS * want
        assert evals == n - 1

    def test_circle_levels_skip_the_walk(self, monkeypatch):
        walked = []
        real = planar_mod._pair_lower

        def spy(points, weights):
            walked.append(len(weights))
            return real(points, weights)

        monkeypatch.setattr(planar_mod, "_pair_lower", spy)
        energy_planar(circle_measure(64))
        assert walked == []
        prof = radial_cdf(dirac_at((0.0, 0.0)), (0.0, 0.0))
        est = energy_planar(blob_approximation(prof, 64, 0.1))
        assert walked == [n for n, _, _ in est.trace]
        # a walked level evaluates every pair it represents once
        assert est.work == tuple((n, n * (n - 1) // 2, n * (n - 1) // 2) for n in walked)

    def test_circle_estimate_holds_python_floats(self):
        est = energy_planar(circle_measure(64))
        assert all(type(v) is float for v in (est.value, est.lower, est.upper))
        assert all(type(v) is float for row in est.trace for v in row[1:])

    def test_work_record(self):
        est = energy_planar(circle_measure(64))
        assert est.work == tuple((n, n - 1, n * (n - 1) // 2) for n in planar_mod.FAMILY_SCHEDULE)
        assert est.work[-1] == (4096, 4095, 8386560)
        assert est.as_dict()["work"][-1] == [4096, 4095, 8386560]

    def test_single_cloud_work_records(self):
        pts = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]]
        assert energy_planar(planar_measure(pts, [1.0, 1.0, 1.0])).work == ((3, 3, 3),)
        stacked = energy_planar(planar_measure([[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5]))
        assert stacked.work == ((2, 1, 1),)
        assert energy_planar(dirac_at((0.25, -0.5))).work == ((1, 0, 0),)


class TestEnergyFamilies:
    def test_circle_family_frozen(self):
        est = energy_planar(circle_measure(64))
        assert est.verdict == VERDICT_FINITE
        assert est.value == pytest.approx(0.3218262627019117, rel=1e-12)
        assert est.lower == pytest.approx(0.3210352606144715, rel=1e-12)
        assert est.upper == pytest.approx(0.3226172647893519, rel=1e-12)
        assert [int(t[0]) for t in est.trace] == [64, 128, 256, 512, 1024, 2048, 4096]
        assert est.trace[0][1] == pytest.approx(0.25815902532562696, rel=1e-12)
        assert est.trace[-1][1] == pytest.approx(0.3210352606144715, rel=1e-12)

    def test_circle_family_near_continuum_oracles(self):
        est = energy_planar(circle_measure(64))
        assert abs(est.value - circle_energy_limit_oracle()) <= 2e-3
        assert abs(est.value - circle_energy_bruteforce_oracle(4096)) <= 1e-3

    def test_line_family_matches_uniform_energy(self):
        est = energy_planar(line_measure(uniform_cdf(0.0, 1.0, 1.0), 64))
        assert est.verdict == VERDICT_FINITE
        assert est.value == pytest.approx(1.5021735264328016, rel=1e-12)
        assert abs(est.value - 1.5) <= 3e-3

    @pytest.mark.parametrize("F, exact", [
        (uniform_cdf(0.0, 1.0, 1.0), 1.5),
        (power_law_cdf(1.0, 0.5, 1.0), 3.0 - 2.0 * math.log(2.0)),
        (cantor_cdf(standard_cantor_spec(3.0)), cantor_energy_oracle(3.0)),
    ], ids=["uniform", "power-half", "cantor-3"])
    def test_line_cloud_brackets_contain_the_energy(self, F, exact):
        est = energy_planar(line_measure(F, 64))
        assert est.verdict == VERDICT_FINITE
        assert est.upper_kind == "modulus"
        assert est.lower <= exact <= est.upper
        assert est.upper - est.lower <= 0.5 * planar_mod.FAMILY_TOL * max(1.0, est.lower)

    def test_line_cloud_is_the_line_engine_estimate(self):
        F = power_law_cdf(1.0, 0.5, 1.0)
        cfg = QuadratureConfig(agreement_tol=planar_mod.FAMILY_TOL / 2)
        assert energy_planar(line_measure(F, 16)) == energy_double_stieltjes(F, cfg)

    def test_dirac_family_diverges(self):
        est = energy_planar(dirac_at((0.25, -0.5), 1.0))
        assert est.verdict == VERDICT_DIVERGENT
        assert est.value == math.inf
        assert est.lower == 0.0

    def test_stacked_atoms_diverge(self):
        est = energy_planar(planar_measure([[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5]))
        assert est.verdict == VERDICT_DIVERGENT

    def test_unrefinable_cloud_is_inconclusive(self):
        est = energy_planar(planar_measure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5]))
        assert est.verdict == VERDICT_INCONCLUSIVE

    def test_empty_rejected(self):
        with pytest.raises(EmptyMeasure):
            energy_planar(planar_measure(np.zeros((0, 2)), np.zeros(0)))


class TestBlobApproximation:
    def test_dirac_blob_geometry(self):
        prof = radial_cdf(dirac_at((0.0, 0.0)), (0.0, 0.0))
        B = blob_approximation(prof, 64, 0.1)
        assert B.n_atoms == 512  # 64 parents x 8 ring points
        assert B.total_mass == pytest.approx(1.0, abs=0.0)
        G = radial_cdf(B, (0.0, 0.0)).G
        assert float(G(0.0999)) == 0.0
        assert float(G(0.1)) == 1.0

    def test_dirac_blob_energy_matches_circle_radius(self):
        # all blob mass lands on the radius-0.1 circle, whose continuum
        # log-energy is ln(1/0.1) = ln 10
        prof = radial_cdf(dirac_at((0.0, 0.0)), (0.0, 0.0))
        est = energy_planar(blob_approximation(prof, 64, 0.1))
        assert est.verdict == VERDICT_FINITE
        assert est.value == pytest.approx(2.301767890984598, rel=1e-12)
        assert abs(est.value - math.log(10.0)) <= 2e-3

    def test_blob_tracks_parent_modulus(self):
        from logmeasure import fit_holder

        parent = power_law_profile(1.0, 0.5, 1.0)
        parent_fit = fit_holder(parent.G, 1, 4)
        assert parent_fit.alpha == pytest.approx(0.5, abs=1e-9)
        B = blob_approximation(parent, 1000, 2.0**-4)
        fit = fit_holder(radial_cdf(B, (0.0, 0.0)).G, 1, 4)
        assert fit.alpha == pytest.approx(0.48320883868986114, rel=1e-9)
        assert fit.K == pytest.approx(1.010949552237142, rel=1e-9)
        assert fit.alpha >= 0.48
        assert fit.K <= 1.2 * parent_fit.K

    def test_bad_radius(self):
        with pytest.raises(BadParams):
            blob_approximation(power_law_profile(1.0, 0.5, 1.0), 10, 0.0)


class TestVelocity:
    def test_single_vortex_closed_form(self):
        # one cell centered exactly at (1, 0): u = (0, 1/(2 pi))
        field = biot_savart(dirac_at((0.0, 0.0)), GridSpec(0.5, -0.5, 1.5, 0.5, 1, 1))
        np.testing.assert_allclose(field.values[0, 0], [0.0, 1.0 / TWO_PI],
                                   atol=1e-15)

    def test_antisymmetry_under_reflection(self):
        g = GridSpec(-1.0, -1.0, 1.0, 1.0, 8, 8)
        u = biot_savart(dirac_at((0.0, 0.0)), g)
        # u(-x) = -u(x) for the origin vortex; the grid is symmetric
        np.testing.assert_allclose(u.values, -u.values[::-1, ::-1], atol=1e-15)

    def test_atom_on_node_rejected(self):
        with pytest.raises(AtomOnGrid):
            biot_savart(dirac_at((0.0, 0.0)), GridSpec(-1.0, -1.0, 1.0, 1.0, 1, 1))

    def test_blob_matches_per_atom_oracle(self):
        prof = radial_cdf(dirac_at((0.01, -0.02)), (0.01, -0.02))
        B = blob_approximation(prof, 64, 0.07)
        g = GridSpec(-1.1, -1.1, 1.1, 1.1, 37, 29)
        # the last row block is a partial one
        assert (g.nx * g.ny * B.n_atoms) % planar_mod._BLOCK_ELEMENTS != 0
        want, scale = biot_savart_oracle(B.points, B.weights, *g.centers())
        err = np.abs(biot_savart(B, g).values - want)
        assert np.all(err <= 1e-13 * scale[..., None])

    def test_circle_matches_direct_reference_bitwise(self):
        # the near square (3 rho = 3) covers the whole grid: all direct
        P = circle_measure(64)
        g = GridSpec(-1.1, -1.1, 1.1, 1.1, 64, 64)
        field = biot_savart(P, g)
        assert (field.direct_cells, field.expansion_cells) == (64 * 64, 0)
        assert field.values.tobytes() == biot_savart_direct_reference(P, g).tobytes()

    @pytest.mark.parametrize("radius,center,grid", [
        (0.05, (0.013, -0.021), (-1.1, -1.1, 1.1, 1.1, 64, 64)),
        (0.1, (-0.031, 0.017), (-1.1, -1.1, 1.1, 1.1, 64, 64)),
        (0.05, (0.2, -0.35), (-1.1, -1.1, 1.1, 1.1, 37, 29)),
        (0.1, (0.2, -0.35), (-1.1, -1.1, 1.1, 1.1, 37, 29)),
        (0.1, (0.95, -0.3), (-1.1, -1.1, 1.1, 1.1, 64, 64)),  # square clipped at x = 1.1
    ])
    def test_blob_far_field_matches_oracle(self, radius, center, grid):
        B = blob_approximation(radial_cdf(dirac_at(center), center), 64, radius)
        g = GridSpec(*grid)
        field = biot_savart(B, g)
        assert field.direct_cells > 0 and field.expansion_cells > 0
        assert field.expansion_order == 34
        want, scale = biot_savart_oracle(B.points, B.weights, *g.centers())
        err = np.abs(field.values - want)
        assert np.all(err <= 1e-13 * scale[..., None])

    def test_direct_sweep_sees_only_the_near_square(self, monkeypatch):
        seen = []
        sweep = planar_mod._direct_sweep

        def spy(points, ws, xs, ys, sep_floor, out):
            seen.append((xs.copy(), ys.copy()))
            sweep(points, ws, xs, ys, sep_floor, out)

        monkeypatch.setattr(planar_mod, "_direct_sweep", spy)
        B = blob_approximation(radial_cdf(dirac_at((0.02, -0.03)), (0.02, -0.03)), 64, 0.08)
        g = GridSpec(-1.1, -1.1, 1.1, 1.1, 64, 64)
        field = biot_savart(B, g)
        x0, y0 = 0.5 * (B.points.min(axis=0) + B.points.max(axis=0))
        reach = 3.0 * np.max(np.hypot(B.points[:, 0] - x0, B.points[:, 1] - y0)) \
            + 1e-12 * min(g.hx, g.hy)
        xs, ys = g.centers()
        near_x, near_y = xs[np.abs(xs - x0) <= reach], ys[np.abs(ys - y0) <= reach]
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0][0], near_x)
        np.testing.assert_array_equal(seen[0][1], near_y)
        assert field.direct_cells == near_x.size * near_y.size
        assert field.expansion_cells == 64 * 64 - field.direct_cells > 0

    def test_blob_sub_atom_on_cell_center_rejected(self):
        B = blob_approximation(radial_cdf(dirac_at((0.013, -0.021)), (0.013, -0.021)), 64, 0.07)
        g = GridSpec(-1.1, -1.1, 1.1, 1.1, 64, 64)
        xs, ys = g.centers()
        pts = B.points.copy()
        pts[100] = (xs[np.argmin(np.abs(xs - pts[100, 0]))],
                    ys[np.argmin(np.abs(ys - pts[100, 1]))])
        P = planar_measure(pts, B.weights)
        with pytest.raises(AtomOnGridReference):
            biot_savart_direct_reference(P, g)
        with pytest.raises(AtomOnGrid):
            biot_savart(P, g)

    @pytest.mark.parametrize("row", [0, -1], ids=["first_block", "last_block"])
    @pytest.mark.parametrize("offset", [0.0, 0.9, 1.1], ids=["on_node", "inside", "outside"])
    @pytest.mark.parametrize("partner", [False, True], ids=["alone", "with_partner"])
    def test_atom_near_node_rejected_as_before(self, row, offset, partner):
        # With a partner atom the near square covers the grid, which the
        # direct sweep visits in several row blocks; alone, rho = 0 and only
        # a node within sep_floor reaches the sweep.
        g = GridSpec(-1.1, -1.1, 1.1, 1.1, 440, 440)
        xs, ys = g.centers()
        sep_floor = 1e-12 * min(g.hx, g.hy)
        pts = [(xs[7] + offset * sep_floor, ys[row])] + ([(0.9, 0.0)] if partner else [])
        P = planar_measure(pts, np.ones(len(pts)))
        if partner:
            assert planar_mod._BLOCK_ELEMENTS // (g.nx * 2) < g.ny - 1  # several row blocks
        if offset < 1.0:
            with pytest.raises(AtomOnGridReference):
                biot_savart_direct_reference(P, g)
            with pytest.raises(AtomOnGrid):
                biot_savart(P, g)
            return
        want = biot_savart_direct_reference(P, g)
        field = biot_savart(P, g)
        if partner:
            assert field.direct_cells == 440 * 440
            assert field.values.tobytes() == want.tobytes()
        else:
            assert (field.expansion_cells, field.expansion_order) == (440 * 440, 0)
            err = np.hypot(*np.moveaxis(field.values - want, -1, 0))
            assert np.all(err <= 1e-15 * np.hypot(*np.moveaxis(want, -1, 0)))

    def test_grid_validation(self):
        with pytest.raises(BadParams):
            GridSpec(0.0, 0.0, 1.0, 1.0, 0, 4)
        with pytest.raises(MalformedInterval):
            GridSpec(1.0, 0.0, 0.0, 1.0, 4, 4)

    def test_annulus_energy_frozen(self):
        g = GridSpec(-1.1, -1.1, 1.1, 1.1, 440, 440)
        u = biot_savart(dirac_at((0.0, 0.0)), g)
        ke = local_kinetic_energy(u, (0.0, 0.0), 1.0, 0.1)
        assert ke == pytest.approx(0.36600816553314225, rel=1e-12)
        target = annulus_kinetic_oracle(0.1, 1.0)
        assert abs(ke - target) / target <= 0.05

    def test_log_growth_slope(self):
        g = GridSpec(-1.1, -1.1, 1.1, 1.1, 440, 440)
        u = biot_savart(dirac_at((0.0, 0.0)), g)
        eps = [0.4, 0.2, 0.1, 0.05]
        xs = [math.log(1.0 / e) for e in eps]
        ys = [local_kinetic_energy(u, (0.0, 0.0), 1.0, e) for e in eps]
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        slope = (n * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / \
                (n * sum(x * x for x in xs) - sx * sx)
        target = 1.0 / TWO_PI
        assert abs(slope - target) / target <= 0.10

    def test_blob_energy_grid_stable(self):
        prof = radial_cdf(dirac_at((0.0, 0.0)), (0.0, 0.0))
        B = blob_approximation(prof, 64, 0.1)
        vals = {}
        for ng in (320, 400):
            u = biot_savart(B, GridSpec(-1.1, -1.1, 1.1, 1.1, ng, ng))
            vals[ng] = local_kinetic_energy(u, (0.0, 0.0), 1.0)
        assert vals[320] == pytest.approx(0.37849311125989205, rel=1e-12)
        assert vals[400] == pytest.approx(0.3767744087072328, rel=1e-12)
        assert abs(vals[400] - vals[320]) / vals[320] < 0.02

    def test_kinetic_energy_validation(self):
        g = GridSpec(-1.0, -1.0, 1.0, 1.0, 8, 8)
        u = biot_savart(dirac_at((0.3, 0.0)), g)
        with pytest.raises(BadParams):
            local_kinetic_energy(u, (0.0, 0.0), 0.1, 0.5)
        with pytest.raises(RegionOutsideGrid):
            local_kinetic_energy(u, (0.0, 0.0), 5.0)


def test_results_do_not_depend_on_blas_threads():
    code = (
        "import logmeasure as lm\n"
        "prof = lm.radial_cdf(lm.dirac_at((0.0, 0.0)), (0.0, 0.0))\n"
        "blob = lm.blob_approximation(prof, 8, 0.1)\n"
        "assert blob.n_atoms == 64\n"
        "u = lm.biot_savart(blob, lm.GridSpec(-1.1, -1.1, 1.1, 1.1, 64, 64))\n"
        "print(repr(u.values.tolist()))\n"
        "print(repr(lm.energy_planar(lm.circle_measure(64))))\n"
        "print(repr(lm.radial_inequality_check(lm.circle_measure(256), (1.0, 0.0))))\n"
    )
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        r = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 3
