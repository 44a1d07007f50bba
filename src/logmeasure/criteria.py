"""Regularity diagnostics and the finite-energy membership classifier.

The diagnostics quantify how fast a CDF's modulus of continuity decays
(Holder fit, log-power modulus test) and how concentrated a step density
is (L^p and L(log L)^gamma functionals, evaluated in log space so
astronomically tall blocks never overflow).  ``classify_membership``
applies the sufficient conditions in a fixed strongest-first order and
returns the first conclusive certificate:

    Lipschitz -> L^p density -> Holder -> log-modulus
              -> direct energy bracket -> lower-bound series -> Unknown

Divergence certificates always carry a certified lower bound (a budget
violation or a growth certificate for a represented infinite series).
A `+inf` result from the functionals is the growth sentinel on log partial
sums, or a finite sum past the double range; a gate that reads `+inf` only
declines, so neither case certifies anything.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadBeta, BadParams, DegenerateModulus
from .measures import (
    MonotoneCDF,
    QuadratureConfig,
    StepDensity,
    _log_modulus_ratios,
    cdf_from_step_density,
    default_modulus_grid,
    sampled_modulus,
)
from .energy import (
    VERDICT_DIVERGENT,
    VERDICT_FINITE,
    _log_partial_sums,
    _tail_growing,
    energy_density,
    energy_double_stieltjes,
    holder_energy_bound,
    step_lower_bound,
)

__all__ = [
    "HolderFit",
    "MembershipVerdict",
    "MEMBER_CERTIFIED",
    "DIVERGENCE_CERTIFIED",
    "UNKNOWN",
    "RULE_LIPSCHITZ",
    "RULE_LP",
    "RULE_HOLDER",
    "RULE_LOG_MODULUS",
    "RULE_ENERGY",
    "RULE_SERIES",
    "fit_holder",
    "log_modulus_checks",
    "lp_norm",
    "l_log_l_gamma",
    "classify_membership",
]

MEMBER_CERTIFIED = "MemberCertified"
DIVERGENCE_CERTIFIED = "DivergenceCertified"
UNKNOWN = "Unknown"

RULE_LIPSCHITZ = "Lipschitz"
RULE_LP = "LpDensity"
RULE_HOLDER = "Holder"
RULE_LOG_MODULUS = "LogModulus"
RULE_ENERGY = "EnergyDirect"
RULE_SERIES = "LowerBoundSeries"

# Default dyadic fitting window 2^-4 .. 2^-16: finer scales would drop below
# the truncation error of depth-limited self-similar evaluators.
DEFAULT_FIT_RANGE = (4, 16)
# Fitted slope at or above this is treated as Lipschitz (slope 1 up to fit
# noise on rough evaluators).
LIPSCHITZ_MIN_ALPHA = 0.98
# Below this the fitted exponent is statistical noise, not continuity.
HOLDER_MIN_ALPHA = 0.05
# Out-of-sample confirmation: the fitted bound must keep holding this many
# octaves past the fitting window, with 5% slack.
VALIDATION_OCTAVES = 4
VALIDATION_SLACK = 1.05
# Exponents tried by the L^p gate, strongest first.
LP_EXPONENTS = (2.0, 1.5, 1.25)
# Log-power moduli tried by the log-modulus gate, weakest (most inclusive)
# first: a bound with small beta > 1 already certifies membership.  The
# first's first scale, 2^-4, is the fitting window's, so the gate continues
# the classifier's one modulus sample.
LOG_MODULUS_BETAS = (1.5, 2.0, 3.0)
# Slope clamp keeping alpha in (0, 1].
_ALPHA_FLOOR = 1e-6


@dataclass(frozen=True)
class HolderFit:
    """Fitted modulus bound |F(x+y) - F(x)| <= K * |y|**alpha.

    K is inflated post-fit so the bound holds on every sampled scale
    literally; residual is the max deviation of the log-modulus from the
    reported line (slope alpha, least-squares intercept).  mods holds the
    sampled modulus at each of the scales.
    """

    alpha: float
    K: float
    scales: tuple
    mods: tuple
    residual: float

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "K": self.K,
            "scales": list(self.scales),
            "mods": list(self.mods),
            "residual": self.residual,
        }


@dataclass(frozen=True)
class MembershipVerdict:
    """Certificate-first classification result.

    MemberCertified requires a satisfied sufficient condition or a finite
    energy bracket; DivergenceCertified requires a certified lower bound;
    Unknown names the last rule attempted in `rule`, and its witness lists
    every rule tried under "declined" with the reason each one declined.
    """

    verdict: str
    rule: str
    witness: dict

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "rule": self.rule, "witness": dict(self.witness)}


def fit_holder(F: MonotoneCDF, j_min: int, j_max: int) -> HolderFit:
    """Least-squares Holder fit of the sampled modulus over scales 2^-j,
    j in [j_min, j_max] (see _holder_fit)."""
    if not (0 <= j_min < j_max):
        raise BadParams(f"need 0 <= j_min < j_max, got [{j_min}, {j_max}]")
    ys = 2.0 ** -np.arange(j_min, j_max + 1, dtype=float)
    return _holder_fit(ys, sampled_modulus(F, ys))


def _holder_fit(ys: np.ndarray, mods: np.ndarray) -> HolderFit:
    """Fit ln mods against ln ys, clamp the slope into (0, 1], refit the
    intercept for the clamped slope, and inflate K so the bound holds on
    every sampled scale.  Scales where the sampled modulus is zero certify
    the bound trivially and are excluded from the regression.
    """
    pos = mods > 0.0
    if np.count_nonzero(pos) < 2:
        raise DegenerateModulus(
            "modulus vanishes at the sampled scales; no exponent to fit"
        )
    ly = np.log(ys[pos])
    lm = np.log(mods[pos])
    npts = ly.size
    sx = float(np.sum(ly))
    sy = float(np.sum(lm))
    sxx = float(np.dot(ly, ly))
    sxy = float(np.dot(ly, lm))
    slope = (npts * sxy - sx * sy) / (npts * sxx - sx * sx)
    alpha = min(max(slope, _ALPHA_FLOOR), 1.0)
    intercept = (sy - alpha * sx) / npts
    residual = float(np.max(np.abs(lm - (intercept + alpha * ly))))
    K = math.exp(float(np.max(lm - alpha * ly)))
    return HolderFit(alpha, K, tuple(float(y) for y in ys[pos]),
                     tuple(float(m) for m in mods[pos]), residual)


def log_modulus_checks(F: MonotoneCDF, betas) -> list:
    """Test F(x+y) - F(x) <= 1/|ln y|**beta at each beta, for dyadic y from
    the first below e^-(beta+1) down to 2^-40, on one modulus sample.

    The sup over x runs on the deterministic modulus grid; worst_ratio is
    the largest modulus * |ln y|**beta seen, and holds means it stayed at
    or below 1.
    """
    return _log_checks(F, betas, np.empty(0), None)


def _log_checks(F: MonotoneCDF, betas, head: np.ndarray, grid) -> list:
    """log_modulus_checks with the modulus at the first head.size scales,
    from the largest first scale 2^-j0 on, already sampled in head; the
    rest is sampled on ``grid`` (None: the default modulus grid)."""
    if not min(betas) > 1.0:
        raise BadBeta(f"log-modulus exponent must be > 1, got {min(betas)}")
    j0s = [int(math.ceil(-math.log2(math.exp(-(beta + 1.0))))) for beta in betas]
    ys = 2.0 ** -np.arange(min(j0s), 41, dtype=float)
    mods = np.concatenate((head, sampled_modulus(F, ys[head.size:], grid=grid)))
    reports = []
    for beta, k in zip(betas, np.subtract(j0s, min(j0s))):
        _, holds, worst, _ = _log_modulus_ratios(ys[k:], mods[k:], beta, 0.0)
        reports.append({"holds": holds, "eps_used": math.exp(-(beta + 1.0)),
                        "worst_ratio": worst})
    return reports


def _series_eval(term_logs, root: float) -> float:
    """(sum of exp(term_logs)) ** root with the +inf growth sentinel.

    Accumulates in log space for the sentinel test; the returned value is a
    compensated linear-space sum whenever no term overflows a double, and
    +inf when the result itself is past the double range.
    """
    partial_logs = _log_partial_sums(term_logs)
    if not partial_logs or partial_logs[-1] == -math.inf:
        return 0.0
    if _tail_growing(partial_logs):
        return math.inf
    if max(term_logs) < 700.0:
        lin = math.fsum(math.exp(tl) for tl in term_logs)
        return lin**root if root != 1.0 else lin
    try:
        return math.exp(partial_logs[-1] * root)
    except OverflowError:
        return math.inf


def lp_norm(f: StepDensity, p: float) -> float:
    """(sum h_n^p d_n)^(1/p) in log space; +inf sentinel when the log
    partial sums keep growing across the trailing blocks."""
    if not p >= 1.0:
        raise BadParams(f"L^p exponent must be >= 1, got {p}")
    term_logs = [
        math.fsum([p * b.h_log, p * b.h_log_lo, b.d_log, b.d_log_lo])
        for b in f.blocks
    ]
    return _series_eval(term_logs, 1.0 / p)


def l_log_l_gamma(f: StepDensity, gamma: float) -> float:
    """sum h_n d_n (ln(1 + h_n))^gamma with ln(1+h) = ln h + ln(1 + 1/h)
    evaluated from the stored log-heights; +inf sentinel by growth test."""
    if gamma < 0.0:
        raise BadParams(f"exponent must be >= 0, got {gamma}")
    term_logs = []
    for b in f.blocks:
        mass_log = b.mass_log()
        h_log = b.h_log_total()
        ln1p_h = h_log + math.log1p(math.exp(-h_log))
        if gamma > 0.0:
            term_logs.append(mass_log + gamma * math.log(ln1p_h))
        else:
            term_logs.append(mass_log)
    return _series_eval(term_logs, 1.0)


def _bound_confirmed(alpha: float, K: float, ys: np.ndarray, mods: np.ndarray) -> bool:
    """Out-of-sample check: K|y|^alpha keeps bounding the modulus mods at
    the VALIDATION_OCTAVES scales ys past the fitting window (5% slack)."""
    return bool(np.all(mods <= VALIDATION_SLACK * K * ys**alpha + 1e-15))


def classify_membership(measure, cfg: QuadratureConfig = QuadratureConfig()) -> MembershipVerdict:
    """Apply the sufficient conditions strongest-first; first conclusive wins.

    CDF inputs take the modulus-based gates and, failing those, a direct
    double-Stieltjes bracket.  The modulus gates (Lipschitz, Holder,
    log-modulus) certify only CDFs with the continuity flag set; for any
    other CDF each declines with "no continuity certificate".  Step
    densities additionally get the L^p gate up front (on the density
    itself) and the diagonal lower-bound series as the final divergence
    certificate; their energy gate uses the exact block engine and
    certifies membership only, leaving divergence to the series rule.
    """
    f = measure if isinstance(measure, StepDensity) else None
    F = cdf_from_step_density(f) if f is not None else measure
    j_lo, j_hi = DEFAULT_FIT_RANGE
    n_fit = j_hi - j_lo + 1

    declined = []  # (rule, reason) of every gate that did not conclude

    def unknown(rule: str) -> MembershipVerdict:
        return MembershipVerdict(UNKNOWN, rule, {
            "reason": "no sufficient condition concluded",
            "declined": [{"rule": r, "reason": why} for r, why in declined],
        })

    if F.total_mass <= 0.0:
        # the zero measure has zero energy; certify trivially
        return MembershipVerdict(
            MEMBER_CERTIFIED, RULE_LIPSCHITZ, {"alpha": 1.0, "K": 0.0, "zero_mass": True}
        )
    # A sampled modulus cannot see a jump that no grid point sits just left
    # of, so the modulus gates certify only CDFs that carry the continuity
    # flag; any other CDF goes straight to the energy gates.
    # They all read one sample of the modulus over 2^-j_lo .. 2^-(j_hi +
    # VALIDATION_OCTAVES): the fitting window, then the out-of-sample
    # scales; the log-modulus gate continues it down to 2^-40.
    fit = None
    no_fit = "no continuity certificate"
    if F.continuous:
        grid = default_modulus_grid(F)
        ys = 2.0 ** -np.arange(j_lo, j_hi + 1 + VALIDATION_OCTAVES, dtype=float)
        mods = sampled_modulus(F, ys, grid=grid)
        try:
            fit = _holder_fit(ys[:n_fit], mods[:n_fit])
        except DegenerateModulus:
            no_fit = "sampled modulus vanishes at the fitting scales"

    if fit is not None and fit.alpha >= LIPSCHITZ_MIN_ALPHA:
        K1 = float(np.max(np.asarray(fit.mods) / np.asarray(fit.scales)))
        if _bound_confirmed(1.0, K1, ys[n_fit:], mods[n_fit:]):
            return MembershipVerdict(
                MEMBER_CERTIFIED,
                RULE_LIPSCHITZ,
                {"alpha": 1.0, "K": K1,
                 "energy_bound": holder_energy_bound(K1, 1.0, F.total_mass)},
            )
        declined.append((RULE_LIPSCHITZ, f"bound K = {K1:.6g} fails the out-of-sample check"))
    else:
        declined.append((RULE_LIPSCHITZ, no_fit if fit is None else
                         f"fitted exponent {fit.alpha:.6g} below {LIPSCHITZ_MIN_ALPHA}"))

    if f is not None:
        for p in LP_EXPONENTS:
            v = lp_norm(f, p)
            if math.isfinite(v):
                return MembershipVerdict(MEMBER_CERTIFIED, RULE_LP, {"p": p, "norm": v})
        declined.append((RULE_LP, f"L^p norm infinite for p in {LP_EXPONENTS}"))

    if fit is not None and HOLDER_MIN_ALPHA <= fit.alpha < 1.0:
        if _bound_confirmed(fit.alpha, fit.K, ys[n_fit:], mods[n_fit:]):
            return MembershipVerdict(
                MEMBER_CERTIFIED,
                RULE_HOLDER,
                {"alpha": fit.alpha, "K": fit.K, "residual": fit.residual,
                 "energy_bound": holder_energy_bound(fit.K, fit.alpha, F.total_mass)},
            )
        declined.append((RULE_HOLDER, f"bound K = {fit.K:.6g}, alpha = {fit.alpha:.6g} "
                                      "fails the out-of-sample check"))
    else:
        declined.append((RULE_HOLDER, no_fit if fit is None else
                         f"fitted exponent {fit.alpha:.6g} outside [{HOLDER_MIN_ALPHA}, 1)"))

    if F.continuous:
        worst = []
        for beta, rep in zip(LOG_MODULUS_BETAS,
                             _log_checks(F, LOG_MODULUS_BETAS, mods, grid)):
            if rep["holds"]:
                return MembershipVerdict(
                    MEMBER_CERTIFIED,
                    RULE_LOG_MODULUS,
                    {"beta": beta, "eps_used": rep["eps_used"],
                     "worst_ratio": rep["worst_ratio"]},
                )
            worst.append(f"{rep['worst_ratio']:.6g} at beta = {beta}")
        declined.append((RULE_LOG_MODULUS, "worst ratio above 1: " + ", ".join(worst)))
    else:
        declined.append((RULE_LOG_MODULUS, no_fit))

    if f is not None:
        est = energy_density(f, cfg)
        if est.verdict == VERDICT_FINITE:
            return MembershipVerdict(
                MEMBER_CERTIFIED, RULE_ENERGY,
                {"value": est.value, "lower": est.lower, "upper": est.upper},
            )
        declined.append((RULE_ENERGY, _energy_reason(est)))
        series = step_lower_bound(f)
        if series["diverging"] or series["partial_sum"] > cfg.divergence_budget:
            return MembershipVerdict(
                DIVERGENCE_CERTIFIED,
                RULE_SERIES,
                {"partial_sum": series["partial_sum"],
                 "diverging": bool(series["diverging"]),
                 "n_blocks": f.n_max},
            )
        declined.append((RULE_SERIES, f"partial sum {series['partial_sum']:.6g} within "
                                      f"budget {cfg.divergence_budget:.6g} and not growing"))
        return unknown(RULE_SERIES)

    est = energy_double_stieltjes(F, cfg)
    if est.verdict == VERDICT_FINITE:
        return MembershipVerdict(
            MEMBER_CERTIFIED, RULE_ENERGY,
            {"value": est.value, "lower": est.lower, "upper": est.upper},
        )
    if est.verdict == VERDICT_DIVERGENT:
        return MembershipVerdict(
            DIVERGENCE_CERTIFIED, RULE_ENERGY, {"lower": est.lower}
        )
    declined.append((RULE_ENERGY, _energy_reason(est)))
    return unknown(RULE_ENERGY)


def _energy_reason(est) -> str:
    return (f"{est.verdict} bracket [{est.lower:.6g}, {est.upper:.6g}], "
            f"stopped by {est.stop_reason}")
