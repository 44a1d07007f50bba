"""End-to-end acceptance experiments with pinned tolerances and budgets.

Each criterion prints exactly one summary line (visible under ``pytest -s``)
and measures its own wall time against the stated budget.  Tolerances come
from ``logmeasure.defaults`` so every number asserted here is auditable in
one place.
"""

import math
import time

import numpy as np
import pytest

from logmeasure import (
    MEMBER_CERTIFIED,
    VERDICT_DIVERGENT,
    VERDICT_FINITE,
    GridSpec,
    biot_savart,
    blob_approximation,
    box_counting_dimension,
    cantor_cdf,
    circle_measure,
    classify_membership,
    dirac_at,
    energy_density,
    energy_double_stieltjes,
    energy_one_sided,
    energy_planar,
    eval_cdf,
    fit_holder,
    general_ratio_spec,
    holder_energy_bound,
    l1_divergent_blocks,
    l_log_l_gamma,
    local_kinetic_energy,
    log_modulus_certificate,
    lp_norm,
    power_law_profile,
    radial_cdf,
    radial_inequality_check,
    standard_cantor_spec,
    step_lower_bound,
    uniform_cdf,
)
from logmeasure import defaults as D

TWO_PI = 2.0 * math.pi


def _finish(num: int, dt: float, budget: float, failures: list, detail: str):
    ok = not failures and dt <= budget
    line = "CRITERION %d: %s — %s [%.2fs of %.0fs budget]" % (
        num, "PASS" if ok else "FAIL", detail, dt, budget)
    print("\n" + line)
    assert not failures, "; ".join(failures)
    assert dt <= budget, "runtime %.2fs exceeds budget %.0fs" % (dt, budget)


def test_criterion_1_uniform_energy():
    failures: list = []
    F = uniform_cdf()
    t0 = time.perf_counter()
    dbl = energy_double_stieltjes(F)
    t_dbl = time.perf_counter() - t0
    t0 = time.perf_counter()
    one = energy_one_sided(F)
    t_one = time.perf_counter() - t0
    for name, est, t_eng in (("double", dbl, t_dbl), ("one-sided", one, t_one)):
        if abs(est.value - D.UNIFORM_ENERGY_VALUE) > D.UNIFORM_ENERGY_TOL:
            failures.append("%s engine value %.17g off 1.5" % (name, est.value))
        if t_eng > 10.0:
            failures.append("%s engine took %.2fs > 10s" % (name, t_eng))
    if abs(dbl.value - one.value) > D.UNIFORM_ENGINE_AGREE_TOL:
        failures.append("engines disagree by %.3g" % abs(dbl.value - one.value))
    _finish(1, max(t_dbl, t_one), 10.0, failures,
            "uniform energy double=%.6f one-sided=%.6f (target 1.5±1e-3, agree 2e-3)"
            % (dbl.value, one.value))


def test_criterion_2_counterexample_series():
    t0 = time.perf_counter()
    failures: list = []
    f = l1_divergent_blocks(D.COUNTEREXAMPLE_BLOCKS)
    series = step_lower_bound(f)
    worst = max(abs(t - 1.0) for t in series["terms"])
    if len(series["terms"]) != D.COUNTEREXAMPLE_BLOCKS or worst > D.COUNTEREXAMPLE_TERM_TOL:
        failures.append("lower-bound terms deviate from 1.0 by %.3g" % worst)
    mass = lp_norm(f, 1.0)
    target = 1.0 - 2.0 ** -50
    if abs(mass - target) > D.COUNTEREXAMPLE_MASS_TOL:
        failures.append("L1 mass %.17g != 1 - 2^-50" % mass)
    est = energy_density(f)
    if est.verdict != VERDICT_DIVERGENT:
        failures.append("density engine verdict %s" % est.verdict)
    _finish(2, time.perf_counter() - t0, 1.0, failures,
            "50 series terms = 1.0 (max dev %.2g), L1 mass = 1-2^-50, energy Divergent"
            % worst)


def test_criterion_3_llogl_threshold():
    t0 = time.perf_counter()
    failures: list = []
    f = l1_divergent_blocks(D.COUNTEREXAMPLE_BLOCKS)
    finite = l_log_l_gamma(f, D.LLOGL_FINITE_GAMMA)
    divergent = l_log_l_gamma(f, D.LLOGL_DIVERGENT_GAMMA)
    if not math.isfinite(finite):
        failures.append("gamma=0.4 integral not finite")
    if not math.isinf(divergent):
        failures.append("gamma=0.6 integral not the +inf sentinel")
    _finish(3, time.perf_counter() - t0, 1.0, failures,
            "L(logL)^0.4 = %.6f finite, L(logL)^0.6 = inf" % finite)


def test_criterion_4_cantor_membership():
    t0 = time.perf_counter()
    failures: list = []
    F = cantor_cdf(standard_cantor_spec(3.0))
    fit = fit_holder(F, *D.CANTOR_FIT_WINDOW)
    lo, hi = D.CANTOR_ALPHA_RANGE
    if not (lo <= fit.alpha <= hi):
        failures.append("fitted exponent %.6f outside [0.61, 0.65]" % fit.alpha)
    bound = holder_energy_bound(fit.K, fit.alpha, 1.0)
    for name, est in (("double", energy_double_stieltjes(F)),
                      ("one-sided", energy_one_sided(F))):
        if est.verdict != VERDICT_FINITE:
            failures.append("%s engine verdict %s" % (name, est.verdict))
        if not est.value <= bound:
            failures.append("%s value %.6f above bound %.6f" % (name, est.value, bound))
    verdict = classify_membership(F)
    if verdict.verdict != MEMBER_CERTIFIED:
        failures.append("classifier said %s/%s" % (verdict.verdict, verdict.rule))
    _finish(4, time.perf_counter() - t0, 30.0, failures,
            "alpha=%.4f, engines FiniteConverged <= bound %.3f, MemberCertified"
            % (fit.alpha, bound))


def test_criterion_5_radial_reduction():
    t0 = time.perf_counter()
    failures: list = []
    rs = np.arange(4097) / 4096.0 * 2.0
    ref = (2.0 / math.pi) * np.arcsin(rs / 2.0)
    sups = {}
    for n in D.RADIAL_NS:
        P = circle_measure(n)
        prof = radial_cdf(P, (1.0, 0.0))
        sup = float(np.max(np.abs(eval_cdf(prof.G, rs) - ref)))
        sups[n] = sup
        if sup > D.RADIAL_SUP_ERR_FACTOR / n:
            failures.append("n=%d sup error %.3g > 2/n" % (n, sup))
        rep = radial_inequality_check(P, (1.0, 0.0))
        if rep["holds_pointwise"] is not True or not rep["lhs_lower"] <= rep["rhs_lower"]:
            failures.append("n=%d radial inequality failed" % n)
        centered = radial_cdf(P, (0.0, 0.0))
        if energy_double_stieltjes(centered.G).verdict != VERDICT_DIVERGENT:
            failures.append("n=%d centered radial energy not Divergent" % n)
        if energy_planar(P).verdict != VERDICT_FINITE:
            failures.append("n=%d planar energy not FiniteConverged" % n)
    _finish(5, time.perf_counter() - t0, 30.0, failures,
            "arcsin sup errors %s all <= 2/n; inequality holds; center radial "
            "Divergent vs planar finite" % ("/".join("%.2g" % sups[n] for n in D.RADIAL_NS)))


def test_criterion_6_power_law_membership():
    t0 = time.perf_counter()
    failures: list = []
    rules = []
    for alpha in D.POWER_ALPHAS:
        prof = power_law_profile(1.0, alpha, 1.0)
        verdict = classify_membership(prof.G)
        rules.append(verdict.rule)
        if verdict.verdict != MEMBER_CERTIFIED:
            failures.append("alpha=%.2f verdict %s" % (alpha, verdict.verdict))
    _finish(6, time.perf_counter() - t0, 10.0, failures,
            "alpha 0.25/0.5/1.0 all MemberCertified via %s" % "/".join(rules))


def test_criterion_7_dimension_table():
    t0 = time.perf_counter()
    failures: list = []
    n_min, n_max = D.DIMENSION_FIT_LEVELS
    for K in D.DIMENSION_KS:
        est = box_counting_dimension(standard_cantor_spec(K), n_min, n_max)
        target = math.log(2.0) / math.log(K)
        if abs(est.slope - target) > D.DIMENSION_SLOPE_TOL:
            failures.append("K=%g slope %.8f != ln2/lnK" % (K, est.slope))
    thin = general_ratio_spec(2.0, depth=D.DIM0_DEPTH)
    est0 = box_counting_dimension(thin, n_min, D.DIM0_LEVEL)
    tail = est0.pointwise[-1]
    target0 = D.DIM0_LEVEL * math.log(2.0) / 2.0 ** (D.DIM0_LEVEL / 2.0)
    if not (tail <= D.DIM0_BOUND and abs(tail - target0) <= 1e-15):
        failures.append("pointwise dim at n=36 is %.3g (want n ln2 / 2^(n/2) <= 1e-4)" % tail)
    cert = log_modulus_certificate(thin, samples=D.LOG_MODULUS_SAMPLES)
    if cert.edge_holds is not True:
        failures.append("log-modulus certificate violated (worst %.6f)" % cert.edge_worst_ratio)
    _finish(7, time.perf_counter() - t0, 10.0, failures,
            "slopes = ln2/lnK for K=3/4/9 (tol 1e-6); pointwise dim %.3g at n=36; "
            "log-modulus certificate holds on %d scales" % (tail, len(cert.scales)))


def test_criterion_8_velocity_consistency():
    t0 = time.perf_counter()
    failures: list = []
    grid = GridSpec(-1.1, -1.1, 1.1, 1.1, 440, 440)
    u = biot_savart(dirac_at((0.0, 0.0)), grid)
    ke = local_kinetic_energy(u, (0.0, 0.0), 1.0, 0.1)
    target = math.log(10.0) / TWO_PI
    if abs(ke - target) / target > D.KE_ANNULUS_REL_TOL:
        failures.append("annulus energy %.6f vs (1/2pi)ln10 = %.6f" % (ke, target))
    eps = [0.4, 0.2, 0.1, 0.05]
    xs = np.log(1.0 / np.asarray(eps))
    ys = np.asarray([local_kinetic_energy(u, (0.0, 0.0), 1.0, e) for e in eps])
    slope = float(np.polyfit(xs, ys, 1)[0])
    if abs(slope - 1.0 / TWO_PI) / (1.0 / TWO_PI) > D.KE_SLOPE_REL_TOL:
        failures.append("ln(1/eps) growth slope %.6f vs 1/2pi" % slope)
    prof = radial_cdf(dirac_at((0.0, 0.0)), (0.0, 0.0))
    blob = blob_approximation(prof, 64, 0.1)
    vals = []
    for ng in (320, 400):
        ub = biot_savart(blob, GridSpec(-1.1, -1.1, 1.1, 1.1, ng, ng))
        vals.append(local_kinetic_energy(ub, (0.0, 0.0), 1.0))
    drift = abs(vals[1] - vals[0]) / vals[0]
    if drift >= D.KE_GRID_DRIFT_TOL:
        failures.append("blob energy grid drift %.3g >= 2%%" % drift)
    _finish(8, time.perf_counter() - t0, 60.0, failures,
            "annulus KE %.4f ~ (1/2pi)ln10, growth slope %.4f ~ 1/2pi, "
            "blob refinement drift %.2g%%" % (ke, slope, 100 * drift))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
