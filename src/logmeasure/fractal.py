"""Cantor-type singular CDFs: the middle-(K-2)/K family and the thin
generalized-ratio family, with exact log-space interval structure and
box-counting dimension estimates.

Everything about the underlying sets is kept in log space (widths at level n
are exp of an exact sum of ratio logs), because generalized-ratio widths
underflow doubles after a couple dozen levels.  Function values, by contrast,
live on [0, 1] and are perfectly representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadBeta, BadParams, BudgetExceeded, DepthExceeded,
                     TooFewPoints)
from .measures import (KIND_CANTOR_ITERATE, MonotoneCDF, _log_modulus_ratios,
                       default_modulus_grid, sampled_modulus)

__all__ = [
    "CantorSpec",
    "IntervalList",
    "DimensionEstimate",
    "standard_cantor_spec",
    "general_ratio_spec",
    "cantor_cdf",
    "cantor_intervals",
    "LogModulusReport",
    "log_modulus_certificate",
    "box_counting_dimension",
]

FAMILY_STANDARD = "StandardK"
FAMILY_GENERAL = "GeneralRatio"

#: enumeration of 2**n intervals is refused above this level
INTERVAL_LEVEL_BUDGET = 24

#: x-grid size of the sampled modulus in the log-modulus certificate
LOG_MODULUS_SAMPLES = 1000

#: smallest denormal double; used to keep rescaling divisions finite once a
#: contraction ratio underflows (the quotient then lands far above 1 and the
#: point is treated as being past the right edge, which is the correct
#: plateau value for anything below the representable scale)
_TINY = 5e-324


@dataclass(frozen=True)
class CantorSpec:
    """Description of an iterated two-copy contraction scheme on [0, 1].

    Level n keeps, inside each level-(n-1) interval, the two end pieces of
    relative length c_n and removes the central 1 - 2*c_n portion (for
    c_n < 1/2; ratios up to 1 are accepted, in which case the two pieces
    overlap and the scheme is no longer a disjoint Cantor construction but
    the CDF iteration below is still well defined).

    family "StandardK": c_n = 1/K for all n (K > 2).
    family "GeneralRatio": level-n interval length is exp(-2**(n/beta)),
    so c_n = exp(2**((n-1)/beta) - 2**(n/beta)) with beta > 1.  These
    lengths underflow doubles quickly; only their logs are ever used.
    """

    family: str
    depth: int
    K: float = 3.0
    beta: float = 2.0
    ratio_logs: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.family not in (FAMILY_STANDARD, FAMILY_GENERAL):
            raise BadParams(f"unknown family {self.family!r}")
        if self.depth < 1:
            raise BadParams(f"depth must be >= 1, got {self.depth}")
        if self.family == FAMILY_STANDARD:
            if not (self.K > 2.0):
                raise BadParams(f"ratio denominator K must exceed 2, got {self.K}")
            logs = tuple([-math.log(self.K)] * self.depth)
        else:
            if not (self.beta > 1.0):
                raise BadBeta(f"growth exponent beta must exceed 1, got {self.beta}")
            prev = 0.0
            logs = []
            for n in range(1, self.depth + 1):
                cur = -(2.0 ** (n / self.beta))
                logs.append(cur - prev)
                prev = cur
            logs = tuple(logs)
        if any(not (lg < 0.0) for lg in logs):
            raise BadParams("all contraction ratios must satisfy 0 < c_n < 1")
        object.__setattr__(self, "ratio_logs", logs)

    @property
    def strictly_thin(self) -> bool:
        """True when every level removes a nonempty middle (c_n < 1/2)."""
        return all(lg < -math.log(2.0) for lg in self.ratio_logs)

    def d_log(self, n: int) -> float:
        """ln of the level-n interval length, by the analytic formula."""
        if n < 0 or n > self.depth:
            raise DepthExceeded(f"level {n} outside 0..{self.depth}")
        if n == 0:
            return 0.0
        if self.family == FAMILY_STANDARD:
            return -n * math.log(self.K)
        return -(2.0 ** (n / self.beta))

    def ratios(self) -> np.ndarray:
        """Contraction ratios as floats (entries may underflow to 0.0)."""
        return np.exp(np.asarray(self.ratio_logs, dtype=float))


def standard_cantor_spec(K: float = 3.0, depth: int = 30) -> CantorSpec:
    """The middle-(K-2)/K scheme; K = 3 is the classical middle-thirds set."""
    return CantorSpec(FAMILY_STANDARD, depth, K=float(K))


def general_ratio_spec(beta: float = 2.0, depth: int = 30) -> CantorSpec:
    """The thin scheme with level-n interval length exp(-2**(n/beta))."""
    return CantorSpec(FAMILY_GENERAL, depth, beta=float(beta))


# ----------------------------------------------------------------------
# Level iterates


def _gamma_eval(x: np.ndarray, ratios: np.ndarray, levels: int) -> np.ndarray:
    """Vectorized digit-descent evaluation of the level-`levels` iterate.

    Each live point carries a rescaled coordinate t in (0, 1) and the index
    of the input it belongs to; every live point at level k has the same
    weight 2**-k.  A level maps t to t/c (left copy) and (t - (1-c))/c
    (right copy).  A copy at or past 1 settles: its weight is banked into
    its input's value and it is dropped.  A copy at or below 0 contributes
    nothing and is dropped.  Only the surviving copies go on to the next
    level, so each level touches the live points alone.  For disjoint
    levels at most one copy per point survives; overlapping levels (c > 1/2)
    keep both copies of the points inside the overlap, which is the correct
    splitting of the recursion.  After the last level each copy adds its
    weight times its coordinate clipped to [0, 1].
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    t = x.reshape(-1)
    size = t.size
    if size == 0:
        return np.zeros(shape)
    vals = np.where(t >= 1.0, 1.0, 0.0)
    live = (t > 0.0) & (t < 1.0)
    t = t[live]
    idx = np.flatnonzero(live)
    w = 1.0
    for k in range(levels):
        if t.size == 0:
            break
        c = float(ratios[k])
        cc = max(c, _TINY)
        a = 1.0 - c
        w *= 0.5
        left = t / cc
        # The right copy (t - a)/c is positive exactly where t > a.  It stays
        # below 1: near t = 1 the subtraction t - a is exact (Sterbenz; and
        # a = 1 - c exactly when c > 1/2), so the quotient is at most
        # 1 - 2^-53 before rounding.  Only left copies settle.
        on_right = t > a
        idx_r = idx[on_right]
        right = (t[on_right] - a) / cc
        if k == levels - 1:
            # no settling needed: the clipped sum below gives a copy at or
            # past 1 its full weight
            t = np.concatenate((left, right))
            idx = np.concatenate((idx, idx_r))
            break
        settled = left >= 1.0
        if np.any(settled):
            np.add.at(vals, idx[settled], w)
        keep = ~settled
        t = np.concatenate((left[keep], right))
        idx = np.concatenate((idx[keep], idx_r))
    if t.size:
        vals += np.bincount(idx, weights=w * np.clip(t, 0.0, 1.0), minlength=size)
    return vals.reshape(shape)


def cantor_cdf(spec: CantorSpec) -> MonotoneCDF:
    """The scheme's CDF as a unit-mass MonotoneCDF on [0, 1].

    The evaluator is the depth-level iterate, which is uniformly within
    2**(-depth) of the limit function.  For strictly thin schemes the
    quantile is exact: the preimage of a mass level is read off its binary
    digits (strict-half splitting, so dyadic masses land on the left edge of
    their plateau).  Overlapping schemes get no quantile closure — binary
    digit descent assumes each half of the mass lives in its own copy, which
    fails once copies overlap — so inversion falls back to bisection there.
    """
    ratios = spec.ratios()
    depth = spec.depth

    def ev(x):
        return _gamma_eval(np.asarray(x, dtype=float), ratios, depth)

    def quant(m):
        m = np.asarray(m, dtype=float)
        frac = np.clip(m.reshape(-1), 0.0, 1.0).copy()
        lo = np.zeros(frac.size)
        scale = 1.0
        for k in range(depth):
            c = float(ratios[k])
            right = frac > 0.5
            lo = np.where(right, lo + (1.0 - c) * scale, lo)
            frac = np.where(right, 2.0 * frac - 1.0, 2.0 * frac)
            scale *= c
            if scale == 0.0:
                break
        return (lo + scale * np.clip(frac, 0.0, 1.0)).reshape(m.shape)

    params = {"family": spec.family, "depth": spec.depth}
    if spec.family == FAMILY_STANDARD:
        params["K"] = spec.K
    else:
        params["beta"] = spec.beta
    return MonotoneCDF(0.0, 1.0, 1.0, ev, KIND_CANTOR_ITERATE, True,
                       params, quant if spec.strictly_thin else None)


# ----------------------------------------------------------------------
# Interval structure


@dataclass(frozen=True)
class IntervalList:
    """The 2**level surviving intervals at one level, all of equal width.

    los are left endpoints in binary-address order (for thin schemes this is
    also spatial order); width_log is the common ln(width).  Widths may
    underflow as floats; the log is exact regardless.
    """

    level: int
    los: tuple
    width_log: float

    @property
    def count(self) -> int:
        return len(self.los)

    def width(self) -> float:
        return math.exp(self.width_log)


def cantor_intervals(spec: CantorSpec, n: int) -> IntervalList:
    """Enumerate the 2**n level-n intervals by binary address.

    Each interval is addressed by a left/right word of length n; appending L
    keeps the left endpoint and appending R shifts it by (1 - c_k) times the
    parent width.  Enumeration cost is 2**n, so levels above the budget are
    refused.
    """
    if n < 0:
        raise BadParams(f"level must be >= 0, got {n}")
    if n > spec.depth:
        raise DepthExceeded(f"level {n} exceeds spec depth {spec.depth}")
    if n > INTERVAL_LEVEL_BUDGET:
        raise BudgetExceeded(
            f"2**{n} intervals exceed the enumeration budget 2**{INTERVAL_LEVEL_BUDGET}")
    los = np.zeros(1)
    scale = 1.0
    for k in range(n):
        c = math.exp(spec.ratio_logs[k])
        offset = (1.0 - c) * scale
        los = np.repeat(los, 2)
        los[1::2] += offset
        scale *= c
    width_log = math.fsum(spec.ratio_logs[:n])
    return IntervalList(n, tuple(los.tolist()), width_log)


# ----------------------------------------------------------------------
# Log-modulus certificate


@dataclass(frozen=True)
class LogModulusReport:
    """Outcome of sampling increments against the reciprocal-log-power bound.

    Two statements are tested at each scale y:

    * edge form: F(y) <= 1/|ln y|**beta — the increment anchored at the left
      support edge.  For thin schemes this extends to arbitrary anchors by
      self-similarity; it is the inequality with a complete chord-concavity
      proof, with equality exactly at the level lengths d_n.
    * sup form: sup_x [F(x+y) - F(x)] <= 1/|ln y|**beta over a deterministic
      x grid.  When some ratio exceeds 1/2 (which happens at small n for
      beta >= 2, where the two level copies overlap), windows spanning an
      overlap region collect mass from both copies and this stronger form
      genuinely fails by a factor up to 2 at the overlap scales; holds/
      worst_ratio report it honestly.

    ratio = increment * |ln y|**beta; the bound asserts ratio <= 1.  Both
    verdicts apply a per-scale slack of 2**(1-depth) * |ln y|**beta, the
    worst-case overshoot of the finite-depth iterate against the limit.
    """

    beta: float
    eps: float
    holds: bool
    worst_ratio: float
    worst_scale: float
    edge_holds: bool
    edge_worst_ratio: float
    edge_worst_scale: float
    scales: tuple
    ratios: tuple
    edge_ratios: tuple


def log_modulus_certificate(spec: CantorSpec) -> LogModulusReport:
    """Check mod(y) <= 1/|ln y|**beta on dyadic scales below exp(-(beta+1)).

    beta is the spec's own exponent, and the sup over x runs on a grid of
    LOG_MODULUS_SAMPLES points.  The scale list is dyadic 2**-j down to
    2**-40, augmented with the exact level lengths d_n (where the bound is
    attained with equality at x = 0, since the CDF value at d_n is exactly
    2**-n while |ln d_n|**beta = 2**n).
    Scales above exp(-(beta+1)) are outside the certified regime and are
    never sampled.
    """
    if spec.family != FAMILY_GENERAL:
        raise BadParams("certificate applies to the GeneralRatio family only")
    beta = spec.beta
    eps = math.exp(-(beta + 1.0))
    F = cantor_cdf(spec)

    scales = []
    j0 = int(math.ceil((beta + 1.0) / math.log(2.0)))
    for j in range(j0, 41):
        scales.append(2.0 ** (-j))
    for n in range(1, spec.depth + 1):
        dn = math.exp(spec.d_log(n))
        if 2.0 ** -40 <= dn <= eps:
            scales.append(dn)
    scales = sorted(set(scales), reverse=True)

    ys = np.array(scales)
    trunc = 2.0 ** (1 - spec.depth)
    mods = sampled_modulus(F, ys, grid=default_modulus_grid(F, LOG_MODULUS_SAMPLES))
    ratios, holds, worst_ratio, worst_scale = _log_modulus_ratios(ys, mods, beta, trunc)
    edge_ratios, edge_holds, edge_worst_ratio, edge_worst_scale = _log_modulus_ratios(
        ys, F(ys), beta, trunc)
    return LogModulusReport(beta, eps, holds, worst_ratio, worst_scale,
                            edge_holds, edge_worst_ratio, edge_worst_scale,
                            tuple(scales), tuple(ratios.tolist()), tuple(edge_ratios.tolist()))


# ----------------------------------------------------------------------
# Box-counting dimension


@dataclass(frozen=True)
class DimensionEstimate:
    """Least-squares dimension fit from exact covers.

    The level-n surviving set is covered by exactly 2**n intervals of the
    level-n length, so counts_log = n ln 2 and scales_log = ln(1/d_n), both
    exact in log space.  pointwise is the per-level ratio
    counts_log/scales_log, whose decay to 0 exhibits dimension-zero sets.
    """

    levels: tuple
    scales_log: tuple
    counts_log: tuple
    slope: float
    intercept: float
    residual: float
    pointwise: tuple


def box_counting_dimension(spec: CantorSpec, n_min: int, n_max: int) -> DimensionEstimate:
    """Fit ln(cover count) against ln(1/scale) over levels n_min..n_max."""
    if not (0 < n_min < n_max):
        raise TooFewPoints(
            f"need at least two levels with 0 < n_min < n_max, got {n_min}..{n_max}")
    if n_max > spec.depth:
        raise DepthExceeded(f"level {n_max} exceeds spec depth {spec.depth}")
    levels = tuple(range(n_min, n_max + 1))
    scales_log = tuple(-spec.d_log(n) for n in levels)
    counts_log = tuple(n * math.log(2.0) for n in levels)
    xs = np.asarray(scales_log)
    ys = np.asarray(counts_log)
    xm = float(np.mean(xs))
    ym = float(np.mean(ys))
    denom = float(np.sum((xs - xm) ** 2))
    slope = float(np.sum((xs - xm) * (ys - ym)) / denom)
    intercept = ym - slope * xm
    residual = float(np.max(np.abs(ys - (slope * xs + intercept))))
    pointwise = tuple(float(c / s) for c, s in zip(counts_log, scales_log))
    return DimensionEstimate(levels, scales_log, counts_log, slope,
                             intercept, residual, pointwise)
