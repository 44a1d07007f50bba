"""The named experiments behind ``logmeasure repro`` and the acceptance suite.

This registry is the only definition of each experiment: ``repro`` runs
one by name, and ``tests/test_acceptance.py`` runs them against wall-time
budgets.  Each scenario reruns one headline computation end to end,
compares the numbers against the thresholds pinned in
:mod:`logmeasure.defaults`, and returns a deterministic report
dictionary (timings are never part of it)::

    {
      "scenario": <name>,
      "claim":    <one-sentence statement being checked, in plain words>,
      "passed":   <bool, and of all checks>,
      "checks":   [{"name": ..., "passed": ..., <numbers>}, ...],
      "tables":   {<table name>: {"columns": [...], "rows": [[...], ...]}},
    }

Reports contain only plain Python/str/float values so they serialize
deterministically through :func:`logmeasure.io.dumps`.
"""
from __future__ import annotations

import math

import numpy as np

from . import defaults as D
from .criteria import (
    MEMBER_CERTIFIED,
    classify_membership,
    fit_holder,
    l_log_l_gamma,
    lp_norm,
)
from .energy import (
    VERDICT_DIVERGENT,
    VERDICT_FINITE,
    energy_density,
    energy_double_stieltjes,
    energy_one_sided,
    holder_energy_bound,
    step_lower_bound,
)
from .errors import BadParams
from .fractal import (
    LOG_MODULUS_SAMPLES,
    box_counting_dimension,
    cantor_cdf,
    general_ratio_spec,
    log_modulus_certificate,
    standard_cantor_spec,
)
from .measures import arcsin_profile_cdf, eval_cdf, l1_divergent_blocks, uniform_cdf
from .planar import (
    GridSpec,
    biot_savart,
    blob_approximation,
    circle_measure,
    dirac_at,
    energy_planar,
    local_kinetic_energy,
    power_law_profile,
    radial_cdf,
    radial_inequality_check,
)

__all__ = ["SCENARIO_NAMES", "run_scenario"]


def _check(name: str, passed: bool, **numbers: float) -> dict:
    out: dict = {"name": name, "passed": bool(passed)}
    for key, value in numbers.items():
        out[key] = value
    return out


def _table(columns: list[str], rows: list[list]) -> dict:
    return {"columns": list(columns), "rows": [list(r) for r in rows]}


def _trace_table(est) -> dict:
    return _table(["n", "lower", "upper"], est.trace)


def _report(name: str, claim: str, checks: list[dict], tables: dict | None = None) -> dict:
    report: dict = {
        "scenario": name,
        "claim": claim,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
    if tables:
        report["tables"] = tables
    return report


# ---------------------------------------------------------------------------
# individual scenarios
# ---------------------------------------------------------------------------

def _uniform_energy() -> dict:
    F = uniform_cdf(0.0, 1.0, 1.0)
    dbl = energy_double_stieltjes(F)
    one = energy_one_sided(F)
    checks = [
        _check(
            "double_engine_value",
            abs(dbl.value - D.UNIFORM_ENERGY_VALUE) <= D.UNIFORM_ENERGY_TOL
            and dbl.verdict == VERDICT_FINITE,
            value=dbl.value,
            target=D.UNIFORM_ENERGY_VALUE,
            tol=D.UNIFORM_ENERGY_TOL,
            verdict=dbl.verdict,
        ),
        _check(
            "one_sided_engine_value",
            abs(one.value - D.UNIFORM_ENERGY_VALUE) <= D.UNIFORM_ENERGY_TOL
            and one.verdict == VERDICT_FINITE,
            value=one.value,
            target=D.UNIFORM_ENERGY_VALUE,
            tol=D.UNIFORM_ENERGY_TOL,
            verdict=one.verdict,
        ),
        _check(
            "engines_agree",
            abs(dbl.value - one.value) <= D.UNIFORM_ENGINE_AGREE_TOL,
            difference=abs(dbl.value - one.value),
            tol=D.UNIFORM_ENGINE_AGREE_TOL,
        ),
    ]
    tables = {
        "trace_double": _trace_table(dbl),
        "trace_one_sided": _trace_table(one),
    }
    return _report(
        "uniform-energy",
        "The positive log-energy of the unit uniform measure on [0, 1] equals "
        "3/2, and both quadrature engines reproduce it.",
        checks,
        tables,
    )


def _counterexample_l1() -> dict:
    f = l1_divergent_blocks(D.COUNTEREXAMPLE_BLOCKS)
    series = step_lower_bound(f)
    terms = series["terms"]
    worst = max(abs(t - 1.0) for t in terms)
    mass = lp_norm(f, 1.0)
    mass_target = 1.0 - 2.0 ** (-D.COUNTEREXAMPLE_BLOCKS)
    est = energy_density(f)
    checks = [
        _check(
            "diagonal_terms_equal_one",
            worst <= D.COUNTEREXAMPLE_TERM_TOL
            and len(terms) == D.COUNTEREXAMPLE_BLOCKS,
            n_terms=len(terms),
            blocks=D.COUNTEREXAMPLE_BLOCKS,
            worst_deviation=worst,
            tol=D.COUNTEREXAMPLE_TERM_TOL,
        ),
        _check(
            "series_flagged_diverging",
            bool(series["diverging"]),
            partial_sum=series["partial_sum"],
        ),
        _check(
            "l1_mass_below_one",
            abs(mass - mass_target) <= D.COUNTEREXAMPLE_MASS_TOL,
            l1_norm=mass,
            target=mass_target,
            tol=D.COUNTEREXAMPLE_MASS_TOL,
        ),
        _check(
            "energy_verdict_divergent",
            est.verdict == VERDICT_DIVERGENT,
            verdict=est.verdict,
            lower=est.lower,
        ),
    ]
    shown = terms[: D.COUNTEREXAMPLE_REPORT_TERMS]
    tables = {
        "lower_bound_terms": _table(
            ["n", "term"], [[n + 1, t] for n, t in enumerate(shown)]
        )
    }
    return _report(
        "counterexample-L1",
        "An integrable density built from thin tall blocks has every diagonal "
        "lower-bound term equal to 1, so its positive log-energy diverges "
        "while its L1 norm stays below 1.",
        checks,
        tables,
    )


def _llogl_threshold() -> dict:
    f = l1_divergent_blocks(D.COUNTEREXAMPLE_BLOCKS)
    v_lo = l_log_l_gamma(f, D.LLOGL_FINITE_GAMMA)
    v_hi = l_log_l_gamma(f, D.LLOGL_DIVERGENT_GAMMA)
    checks = [
        _check(
            "below_threshold_finite",
            math.isfinite(v_lo),
            gamma=D.LLOGL_FINITE_GAMMA,
            value=v_lo,
        ),
        _check(
            "above_threshold_infinite",
            math.isinf(v_hi),
            gamma=D.LLOGL_DIVERGENT_GAMMA,
            value=v_hi,
        ),
    ]
    return _report(
        "llogl-threshold",
        "The divergent staircase density lies in L(logL)^gamma exactly for "
        "gamma below one half: the integral is finite at gamma = 0.4 and "
        "infinite at gamma = 0.6.",
        checks,
    )


def _cantor_standard() -> dict:
    spec = standard_cantor_spec(3.0)
    F = cantor_cdf(spec)
    j_min, j_max = D.CANTOR_FIT_WINDOW
    fit = fit_holder(F, j_min, j_max)
    lo, hi = D.CANTOR_ALPHA_RANGE
    dbl = energy_double_stieltjes(F)
    one = energy_one_sided(F)
    bound = holder_energy_bound(fit.K, fit.alpha, 1.0)
    verdict = classify_membership(F)
    checks = [
        _check(
            "fitted_exponent_in_range",
            lo <= fit.alpha <= hi,
            alpha=fit.alpha,
            lo=lo,
            hi=hi,
            K=fit.K,
            target=math.log(2.0) / math.log(3.0),
        ),
        _check(
            "double_engine_finite",
            dbl.verdict == VERDICT_FINITE and dbl.value <= bound,
            value=dbl.value,
            holder_bound=bound,
            verdict=dbl.verdict,
        ),
        _check(
            "one_sided_engine_finite",
            one.verdict == VERDICT_FINITE and one.value <= bound,
            value=one.value,
            holder_bound=bound,
            verdict=one.verdict,
        ),
        _check(
            "membership_certified",
            verdict.verdict == MEMBER_CERTIFIED,
            verdict=verdict.verdict,
            rule=verdict.rule,
        ),
    ]
    tables = {
        "trace_double": _trace_table(dbl),
        "trace_one_sided": _trace_table(one),
    }
    return _report(
        "cantor-standard",
        "The equal-ratio singular measure with contraction 1/3 is Holder with "
        "exponent near ln2/ln3, its log-energy is finite and below the "
        "Holder bound, and the classifier certifies membership.",
        checks,
        tables,
    )


def _cantor_smallest() -> dict:
    spec = general_ratio_spec(2.0, depth=D.DIM0_DEPTH)
    cert = log_modulus_certificate(spec)
    # Pointwise box-count ratio at a deep level: n*ln2 / |ln d_n| with
    # ln d_n = -2^{n/2}, which must have decayed below DIM0_BOUND.
    level = D.DIM0_LEVEL
    pointwise = box_counting_dimension(spec, D.DIMENSION_FIT_LEVELS[0], level).pointwise[-1]
    closed_form = level * math.log(2.0) / 2.0 ** (level / 2.0)
    checks = [
        _check(
            "edge_modulus_certified",
            bool(cert.edge_holds),
            beta=cert.beta,
            edge_worst_ratio=cert.edge_worst_ratio,
            edge_worst_scale=cert.edge_worst_scale,
            samples=LOG_MODULUS_SAMPLES,
        ),
        _check(
            "windowed_modulus_reported",
            True,  # informational: the windowed (supremum) form can exceed 1
            windowed_holds=bool(cert.holds),
            windowed_worst_ratio=cert.worst_ratio,
            windowed_worst_scale=cert.worst_scale,
        ),
        _check(
            "pointwise_dimension_ratio_decayed",
            pointwise <= D.DIM0_BOUND
            and abs(pointwise - closed_form) <= D.DIM0_CLOSED_FORM_TOL,
            level=level,
            ratio=pointwise,
            bound=D.DIM0_BOUND,
            closed_form=closed_form,
            closed_form_tol=D.DIM0_CLOSED_FORM_TOL,
        ),
    ]
    return _report(
        "cantor-smallest",
        "The doubly exponential construction has increments bounded by "
        "1/|log y|^2 at interval endpoints and box-count ratios decaying to "
        "zero, i.e. dimension 0.  (The supremum over whole dyadic windows "
        "can exceed the same bound; the emitted numbers record both forms.)",
        checks,
    )


def _radial_circle() -> dict:
    rs = np.arange(4097) / 4096.0 * 2.0
    ref = eval_cdf(arcsin_profile_cdf(), rs)
    checks = []
    sup_rows = []
    planar = []
    centred = []
    for n in D.RADIAL_NS:
        P = circle_measure(n)
        prof = radial_cdf(P, (1.0, 0.0))
        sup_err = float(np.max(np.abs(eval_cdf(prof.G, rs) - ref)))
        budget = D.RADIAL_SUP_ERR_FACTOR / n
        sup_rows.append([n, sup_err, budget])
        checks.append(
            _check(
                "arcsin_sup_error_n%d" % n,
                sup_err <= budget,
                n=n,
                sup_error=sup_err,
                budget=budget,
            )
        )
        ineq = radial_inequality_check(P, (1.0, 0.0))
        checks.append(
            _check(
                "inequality_on_circle_n%d" % n,
                bool(ineq["holds_pointwise"])
                and ineq["lhs_lower"] <= ineq["rhs_lower"]
                and math.isfinite(ineq["rhs_lower"]),
                n=n,
                lhs_lower=ineq["lhs_lower"],
                rhs_lower=ineq["rhs_lower"],
            )
        )
        centred.append(energy_double_stieltjes(radial_cdf(P, (0.0, 0.0)).G))
        planar.append(energy_planar(P))
    center = radial_inequality_check(circle_measure(D.RADIAL_NS[1]), (0.0, 0.0))
    checks.append(
        _check(
            "center_projection_divergent",
            math.isinf(center["rhs_lower"]) and bool(center["holds_pointwise"]),
            lhs_lower=center["lhs_lower"],
            rhs_lower=center["rhs_lower"],
        )
    )
    checks.append(
        _check(
            "centred_radial_energy_divergent",
            all(e.verdict == VERDICT_DIVERGENT for e in centred),
            n=list(D.RADIAL_NS),
            lower=[e.lower for e in centred],
            verdict=[e.verdict for e in centred],
        )
    )
    checks.append(
        _check(
            "planar_energy_finite",
            all(e.verdict == VERDICT_FINITE for e in planar),
            n=list(D.RADIAL_NS),
            value=[e.value for e in planar],
            lower=[e.lower for e in planar],
            upper=[e.upper for e in planar],
            verdict=[e.verdict for e in planar],
        )
    )
    tables = {
        "sup_errors": _table(["n", "sup_error", "budget"], sup_rows),
        "trace_planar": _trace_table(planar[0]),
    }
    return _report(
        "radial-circle",
        "Distances from a point on the unit circle push the uniform circle "
        "measure to the arcsin profile; the projected energy dominates the "
        "planar energy pointwise, and projecting to the center diverges "
        "while the planar energy stays finite.",
        checks,
        tables,
    )


def _power_law() -> dict:
    checks = []
    for alpha in D.POWER_ALPHAS:
        prof = power_law_profile(1.0, alpha, 1.0)
        verdict = classify_membership(prof.G)
        checks.append(
            _check(
                "membership_alpha_%s" % ("%g" % alpha),
                verdict.verdict == MEMBER_CERTIFIED,
                alpha=alpha,
                verdict=verdict.verdict,
                rule=verdict.rule,
            )
        )
    return _report(
        "power-law",
        "Radial profiles G(r) = r^alpha with alpha in {1/4, 1/2, 1} are "
        "certified members of the finite-energy class (the alpha = 1/2 case "
        "uses c = R = 1 as a stand-in normalization).",
        checks,
    )


def _blob_holder() -> dict:
    c, alpha, R = D.BLOB_PARENT_PARAMS
    parent = power_law_profile(c, alpha, R)
    j_min, j_max = D.BLOB_FIT_WINDOW
    parent_fit = fit_holder(parent.G, j_min, j_max)
    k_cap = D.BLOB_K_FACTOR * parent_fit.K
    checks = [
        _check(
            "parent_fit",
            True,
            alpha=parent_fit.alpha,
            K=parent_fit.K,
            window_lo=j_min,
            window_hi=j_max,
        )
    ]
    rows = []
    lo_j, hi_j = D.BLOB_J_RANGE
    for j in range(lo_j, hi_j + 1):
        radius = 2.0 ** (-j)
        blob = blob_approximation(parent, D.BLOB_N, radius)
        G = radial_cdf(blob, (0.0, 0.0)).G
        fit = fit_holder(G, j_min, j_max)
        rows.append([j, radius, fit.alpha, fit.K])
        checks.append(
            _check(
                "blob_tracks_parent_j%d" % j,
                fit.alpha >= D.BLOB_MIN_ALPHA and fit.K <= k_cap,
                blob_radius=radius,
                alpha=fit.alpha,
                alpha_min=D.BLOB_MIN_ALPHA,
                K=fit.K,
                K_cap=k_cap,
            )
        )
    tables = {"fits": _table(["j", "blob_radius", "alpha", "K"], rows)}
    return _report(
        "blob-holder",
        "Mollifying the alpha = 1/2 radial profile into finite blobs of "
        "radius 2^-j keeps the fitted modulus exponent near 1/2 with a "
        "constant within 20 percent of the parent, uniformly over the "
        "resolved octaves above every tested blob radius.",
        checks,
        tables,
    )


def _dimension_table() -> dict:
    checks = []
    slope_rows = []
    n_min, n_max = D.DIMENSION_FIT_LEVELS
    for K in D.DIMENSION_KS:
        spec = standard_cantor_spec(K)
        est = box_counting_dimension(spec, n_min, n_max)
        target = math.log(2.0) / math.log(K)
        err = abs(est.slope - target)
        slope_rows.append([K, est.slope, target, err])
        checks.append(
            _check(
                "slope_K%s" % ("%g" % K),
                err <= D.DIMENSION_SLOPE_TOL,
                K=K,
                slope=est.slope,
                target=target,
                error=err,
                tol=D.DIMENSION_SLOPE_TOL,
            )
        )
    thin = general_ratio_spec(2.0, depth=D.DIM0_DEPTH)
    decay_rows = []
    for n in range(4, D.DIM0_LEVEL + 1, 4):
        decay_rows.append([n, n * math.log(2.0) / abs(thin.d_log(n))])
    final = decay_rows[-1][1]
    checks.append(
        _check(
            "thin_family_ratio_decayed",
            final <= D.DIM0_BOUND,
            level=D.DIM0_LEVEL,
            ratio=final,
            bound=D.DIM0_BOUND,
        )
    )
    tables = {
        "slopes": _table(["K", "slope", "target", "error"], slope_rows),
        "beta2_decay": _table(["n", "pointwise_ratio"], decay_rows),
    }
    return _report(
        "dimension-table",
        "Box-counting slopes of the equal-ratio families match ln2/lnK for "
        "K in {3, 4, 9} to fitting accuracy, and the doubly exponential "
        "family's pointwise ratios decay to zero.",
        checks,
        tables,
    )


def _velocity_consistency() -> dict:
    origin = (0.0, 0.0)
    u = biot_savart(dirac_at(origin), GridSpec(*D.KE_BOX, D.KE_GRID_N, D.KE_GRID_N))
    ke = local_kinetic_energy(u, origin, D.KE_R_OUT, D.KE_R_IN)
    target = math.log(D.KE_R_OUT / D.KE_R_IN) / (2.0 * math.pi)
    annulus = [local_kinetic_energy(u, origin, D.KE_R_OUT, eps) for eps in D.KE_EPS]
    slope = float(np.polyfit(np.log(1.0 / np.asarray(D.KE_EPS)), annulus, 1)[0])
    slope_target = 1.0 / (2.0 * math.pi)
    blob = blob_approximation(
        radial_cdf(dirac_at(origin), origin), D.KE_BLOB_N, D.KE_BLOB_RADIUS
    )
    blob_ke = [
        local_kinetic_energy(biot_savart(blob, GridSpec(*D.KE_BOX, ng, ng)), origin, D.KE_R_OUT)
        for ng in D.KE_BLOB_GRIDS
    ]
    drift = abs(blob_ke[1] - blob_ke[0]) / blob_ke[0]
    checks = [
        _check(
            "annulus_energy",
            abs(ke - target) / target <= D.KE_ANNULUS_REL_TOL,
            value=ke,
            target=target,
            rel_tol=D.KE_ANNULUS_REL_TOL,
        ),
        _check(
            "log_growth_slope",
            abs(slope - slope_target) / slope_target <= D.KE_SLOPE_REL_TOL,
            slope=slope,
            target=slope_target,
            rel_tol=D.KE_SLOPE_REL_TOL,
        ),
        _check(
            "blob_grid_drift",
            drift < D.KE_GRID_DRIFT_TOL,
            drift=drift,
            tol=D.KE_GRID_DRIFT_TOL,
        ),
    ]
    tables = {
        "annulus_energy": _table(["r_in", "energy"], zip(D.KE_EPS, annulus)),
        "blob_grid": _table(["n_grid", "energy"], zip(D.KE_BLOB_GRIDS, blob_ke)),
    }
    return _report(
        "velocity-consistency",
        "The Biot-Savart field of a unit point vortex has kinetic energy "
        "(1/2pi) ln(R/r) on the annulus r < |x| < R, so it grows like "
        "(1/2pi) ln(1/eps) as the inner radius shrinks, and a vortex blob's "
        "disk energy is stable under grid refinement.",
        checks,
        tables,
    )


SCENARIOS = {
    "uniform-energy": _uniform_energy,
    "counterexample-L1": _counterexample_l1,
    "llogl-threshold": _llogl_threshold,
    "cantor-standard": _cantor_standard,
    "cantor-smallest": _cantor_smallest,
    "radial-circle": _radial_circle,
    "power-law": _power_law,
    "blob-holder": _blob_holder,
    "dimension-table": _dimension_table,
    "velocity-consistency": _velocity_consistency,
}

SCENARIO_NAMES = tuple(SCENARIOS)


def run_scenario(name: str) -> dict:
    """Run one canned scenario by name and return its report dictionary.

    Raises :class:`BadParams` for an unknown scenario name.
    """
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise BadParams(
            "unknown scenario %r; choose one of: %s"
            % (name, ", ".join(SCENARIO_NAMES))
        ) from None
    return fn()
