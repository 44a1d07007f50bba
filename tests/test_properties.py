"""Randomized invariant checks (1000 cases per property, derandomized).

Each property is a standalone hypothesis test, collected and run once by
pytest.

Planar clouds use coordinates on the dyadic lattice i/1024.  Distinct
lattice points are at least 2**-10 apart, so the rounding of the radial
projection (a few ulps of the radii, ~1e-15) is negligible against every
pairwise distance and the log-kernel comparisons are decided by the
mathematics, not by accumulation noise.  Duplicate atoms remain exactly
bitwise equal, which both sides treat as a zero-distance pair.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logmeasure import (
    QuadratureConfig,
    StepDensity,
    Block,
    cantor_cdf,
    energy_density,
    energy_double_stieltjes,
    eval_cdf,
    planar_measure,
    power_law_cdf,
    radial_inequality_check,
    radial_pushforward_check,
    scale_cdf,
    standard_cantor_spec,
    table_cdf,
    translate_cdf,
    uniform_cdf,
)
from oracles import cantor_energy_oracle

PROP = settings(
    max_examples=1000,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# Two-level schedule: cheap enough for thousands of runs, still produces a
# genuine refinement pair so brackets and agreement logic are exercised.
CHEAP = QuadratureConfig(depth_schedule=(16, 32))

# For the scaling/translation comparisons the divergence budget must never
# fire: it is an absolute cutoff, so multiplying the measure by c can push a
# large finite energy across it and truncate one refinement path but not the
# other.  With the budget out of the way both runs complete the identical
# schedule and the kernel sums compare term by term.
CHEAP_UNBUDGETED = QuadratureConfig(depth_schedule=(16, 32), divergence_budget=1e9)

LATTICE = st.integers(-8192, 8192).map(lambda i: i / 1024.0)
POS_LATTICE = st.integers(1, 4096).map(lambda i: i / 1024.0)
WEIGHT = st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# Measure strategies


@st.composite
def table_cdfs(draw):
    n = draw(st.integers(2, 8))
    xs = sorted(draw(st.sets(LATTICE, min_size=n, max_size=n)))
    steps = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    fs = np.cumsum([s + 0.01 for s in steps]).tolist()
    return table_cdf(xs, fs)


@st.composite
def continuous_cdfs(draw, min_alpha=0.05):
    kind = draw(st.sampled_from(["uniform", "power", "cantor"]))
    if kind == "uniform":
        lo = draw(LATTICE)
        hi = lo + draw(POS_LATTICE)
        F = uniform_cdf(lo, hi, draw(st.floats(0.1, 4.0, allow_nan=False)))
    elif kind == "power":
        F = power_law_cdf(
            draw(st.floats(0.1, 2.0, allow_nan=False)),
            draw(st.floats(min_alpha, 1.0, allow_nan=False)),
            draw(POS_LATTICE),
        )
    else:
        F = cantor_cdf(standard_cantor_spec(draw(st.sampled_from([3, 4, 9]))))
    return F


@st.composite
def any_cdfs(draw):
    if draw(st.booleans()):
        F = draw(continuous_cdfs())
    else:
        F = draw(table_cdfs())
    wrap = draw(st.sampled_from(["none", "scale", "translate"]))
    if wrap == "scale":
        F = scale_cdf(F, draw(st.floats(0.2, 5.0, allow_nan=False)))
    elif wrap == "translate":
        F = translate_cdf(F, draw(LATTICE))
    return F


@st.composite
def step_densities(draw):
    n = draw(st.integers(1, 6))
    blocks = []
    a = draw(LATTICE)
    for _ in range(n):
        d_log = draw(st.floats(-3.0, 0.0, allow_nan=False))
        h_log = draw(st.floats(0.0, 2.0, allow_nan=False))
        blocks.append(Block(a, d_log, h_log))
        a += math.exp(d_log) + draw(st.floats(0.0, 1.0, allow_nan=False))
    return StepDensity(tuple(blocks))


@st.composite
def planar_clouds(draw):
    n = draw(st.integers(3, 16))
    pts = [(draw(LATTICE), draw(LATTICE)) for _ in range(n)]
    ws = [draw(WEIGHT) for _ in range(n)]
    center = (draw(LATTICE), draw(LATTICE))
    return planar_measure(pts, ws), center


# ----------------------------------------------------------------------
# 1. CDF monotonicity


@PROP
@given(
    any_cdfs(),
    st.floats(-16.0, 16.0, allow_nan=False),
    st.floats(-16.0, 16.0, allow_nan=False),
)
def test_cdf_monotone(F, s, t):
    x, y = min(s, t), max(s, t)
    assert eval_cdf(F, x) <= eval_cdf(F, y)
    assert 0.0 <= eval_cdf(F, x) <= F.total_mass


# ----------------------------------------------------------------------
# 2. Energy nonnegativity


@PROP
@given(any_cdfs())
def test_energy_nonnegative(F):
    est = energy_double_stieltjes(F, CHEAP)
    assert 0.0 <= est.lower <= est.upper
    assert est.lower <= est.value <= est.upper


@PROP
@given(step_densities())
def test_density_energy_nonnegative(f):
    est = energy_density(f, CHEAP)
    assert 0.0 <= est.lower <= est.upper
    assert est.lower <= est.value <= est.upper


# ----------------------------------------------------------------------
# 3. Quadratic mass scaling


@PROP
@given(continuous_cdfs(), st.floats(0.2, 5.0, allow_nan=False))
def test_energy_mass_scaling(F, c):
    base = energy_double_stieltjes(F, CHEAP_UNBUDGETED)
    scaled = energy_double_stieltjes(scale_cdf(F, c), CHEAP_UNBUDGETED)
    # the kernel sums are bilinear in the weights, so scaling the measure
    # by c multiplies every quadrature sum by exactly c**2
    tol = 2.0 * CHEAP.agreement_tol * max(1.0, c * c)
    assert abs(scaled.value - c * c * base.value) <= tol


# ----------------------------------------------------------------------
# 4. Translation invariance


# Exponents are kept >= 0.2 here: a power law with alpha = 1/16 on a short
# interval has quantile structure R * (k/n)**16, far below the resolution
# of floating point around the translated endpoint, so the relocated
# measure is not representable and no quadrature can see it.  With
# alpha >= 0.2 the finest cell stays many orders above position rounding.
@PROP
@given(continuous_cdfs(min_alpha=0.2), LATTICE)
def test_energy_translation_invariant(F, t):
    base = energy_double_stieltjes(F, CHEAP_UNBUDGETED)
    moved = energy_double_stieltjes(translate_cdf(F, t), CHEAP_UNBUDGETED)
    assert abs(moved.value - base.value) <= 2.0 * CHEAP.agreement_tol


# ----------------------------------------------------------------------
# 5. Single-level double-engine brackets contain the exact energy

CANONICAL = (
    (uniform_cdf(), 1.5),
    (power_law_cdf(1.0, 0.5, 1.0), 3.0 - 2.0 * math.log(2.0)),
    (cantor_cdf(standard_cantor_spec(3)), cantor_energy_oracle(3.0)),
)


@PROP
@given(st.sampled_from(CANONICAL), st.sampled_from([16, 32, 64]))
def test_double_bracket_contains_exact(case, na):
    # a single level makes no convergence claim, but its bracket is still a
    # bracket of the true energy
    F, exact = case
    est = energy_double_stieltjes(F, QuadratureConfig(depth_schedule=(na,)))
    assert est.lower <= exact <= est.upper


# ----------------------------------------------------------------------
# 6. Radial projection dominates pairwise kernels


@PROP
@given(planar_clouds())
def test_radial_inequality(cloud):
    P, center = cloud
    out = radial_inequality_check(P, center)
    assert out["holds_pointwise"] is True
    lhs, rhs = out["lhs_lower"], out["rhs_lower"]
    if math.isinf(rhs):
        return
    # lhs <= rhs holds termwise in exact arithmetic; the slack only covers
    # kernel rounding: lattice separations >= 2**-10 keep each term's error
    # below ~1e-11 and the squared total mass is at most 16**2
    assert lhs <= rhs + 1e-8 * max(1.0, abs(rhs))


# ----------------------------------------------------------------------
# 7. Radial pushforward preserves integrals


@PROP
@given(planar_clouds(), st.sampled_from(["r^2", "min(r,1)", "1"]))
def test_pushforward_gap(cloud, h):
    P, center = cloud
    out = radial_pushforward_check(P, center, h)
    scale = max(1.0, abs(out["lhs"]), abs(out["rhs"]))
    assert out["gap"] <= 1e-12 * scale


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
