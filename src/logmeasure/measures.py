"""Nonnegative measures on the real line represented by monotone CDFs.

A measure eta with compact support is handled through its cumulative
distribution function F(x) = eta((-inf, x]).  Evaluation is clamped: F is 0
strictly left of the support, equal to the total mass from the right support
edge on, and always inside [0, total_mass].  Step densities with extreme
block geometry are stored in log space so that widths like exp(-2**(2n))
never have to exist as ordinary floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadParams,
    DiscontinuousInput,
    MalformedInterval,
    OutOfRange,
    OverlapError,
    ZeroMass,
)

__all__ = [
    "MonotoneCDF",
    "MassInterval",
    "QuadratureConfig",
    "Block",
    "StepDensity",
    "uniform_cdf",
    "power_law_cdf",
    "table_cdf",
    "scale_cdf",
    "translate_cdf",
    "eval_cdf",
    "interval_mass",
    "generalized_inverse",
    "mass_uniform_partition",
    "cdf_from_step_density",
    "l1_divergent_blocks",
    "arcsin_profile_cdf",
    "default_modulus_grid",
    "sampled_modulus",
]

# Evaluator kinds.  TableSampled is the only discontinuous kind; all other
# constructors must pass the sampled continuity check.
KIND_PIECEWISE_LINEAR = "PiecewiseLinear"
KIND_POWER_LAW = "PowerLaw"
KIND_CANTOR_ITERATE = "CantorIterate"
KIND_STEP_INTEGRAL = "StepIntegral"
KIND_ARCSIN_PROFILE = "ArcsinProfile"
KIND_TABLE_SAMPLED = "TableSampled"

KINDS = (
    KIND_PIECEWISE_LINEAR,
    KIND_POWER_LAW,
    KIND_CANTOR_ITERATE,
    KIND_STEP_INTEGRAL,
    KIND_ARCSIN_PROFILE,
    KIND_TABLE_SAMPLED,
)

# Absolute floor for the inverse-CDF bisection tolerance.
INVERSE_TOL_FLOOR = 1e-14
LN2 = math.log(2.0)


@dataclass(frozen=True)
class MonotoneCDF:
    """Monotone CDF of a finite nonnegative measure on the line.

    The evaluator must be vectorized (accept and return numpy arrays) and
    nondecreasing; clamping outside the support is applied by eval_cdf, so
    evaluators only need to be correct on [support_lo, support_hi].

    quantile, when present, is the exact vectorized generalized inverse
    m -> inf{x : F(x) >= m} (left-plateau convention) used as a fast path by
    the inversion and partitioning routines; bisection is the fallback.
    """

    support_lo: float
    support_hi: float
    total_mass: float
    evaluator: Callable
    kind: str
    continuous: bool = False
    params: dict = field(default_factory=dict)
    quantile: Callable | None = None

    def __post_init__(self):
        if not (self.support_lo <= self.support_hi):
            raise MalformedInterval(
                f"support [{self.support_lo}, {self.support_hi}] out of order"
            )
        if not (self.total_mass >= 0.0) or not math.isfinite(self.total_mass):
            raise BadParams(f"total mass must be finite and >= 0, got {self.total_mass}")
        if self.kind not in KINDS:
            raise BadParams(f"unknown CDF kind {self.kind!r}")

    def __call__(self, x):
        return eval_cdf(self, x)


@dataclass(frozen=True)
class MassInterval:
    """One cell of a mass partition: closed interval with its measure mass."""

    lo: float
    hi: float
    mass: float
    width_log: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise MalformedInterval(f"interval [{self.lo}, {self.hi}] out of order")


@dataclass(frozen=True)
class QuadratureConfig:
    """Shared knobs for the energy engines.

    depth_schedule lists the mass-partition sizes tried in order; engines
    stop early once brackets agree to agreement_tol (relative, floored at an
    absolute scale of 1).  A lower bound exceeding divergence_budget
    certifies divergence.
    """

    depth_schedule: tuple = tuple(2**k for k in range(4, 17))
    divergence_budget: float = 1e3
    agreement_tol: float = 1e-3

    def __post_init__(self):
        if not self.depth_schedule or any(n < 1 for n in self.depth_schedule):
            raise BadParams("depth_schedule must list positive partition sizes")
        if self.divergence_budget <= 0 or self.agreement_tol <= 0:
            raise BadParams("budget and tolerance must be positive")


# ----------------------------------------------------------------------
# Evaluation and construction helpers


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, (arr.ndim == 0)


def eval_cdf(F: MonotoneCDF, x):
    """Evaluate F with hard clamps: 0 left of support, total mass from the
    right edge on, and values confined to [0, total_mass]."""
    arr, scalar = _as_float_array(x)
    raw = np.asarray(F.evaluator(arr), dtype=float)
    out = np.clip(raw, 0.0, F.total_mass)
    out = np.where(arr < F.support_lo, 0.0, out)
    out = np.where(arr >= F.support_hi, F.total_mass, out)
    if scalar:
        return float(out)
    return out


def interval_mass(F: MonotoneCDF, lo: float, hi: float) -> float:
    """Mass of the half-open interval (lo, hi] under F."""
    if lo > hi:
        raise MalformedInterval(f"interval [{lo}, {hi}] out of order")
    return max(0.0, eval_cdf(F, hi) - eval_cdf(F, lo))


def _inverse_tol(F: MonotoneCDF) -> float:
    span = F.support_hi - F.support_lo
    return max(span * 2.0**-52, INVERSE_TOL_FLOOR)


def _ginv_array(F: MonotoneCDF, targets: np.ndarray) -> np.ndarray:
    """Vector generalized inverse inf{x : F(x) >= m}, snapping to plateau left
    edges.  Targets must already be inside [0, total_mass].  Uses the exact
    quantile closure when the measure carries one, bisection otherwise."""
    if F.quantile is not None:
        q = np.asarray(F.quantile(np.asarray(targets, dtype=float)), dtype=float)
        return np.clip(q, F.support_lo, F.support_hi)
    lo = np.full(targets.shape, F.support_lo, dtype=float)
    hi = np.full(targets.shape, F.support_hi, dtype=float)
    # If F already reaches the target at the left support edge the infimum
    # is the edge itself.
    at_lo = eval_cdf(F, np.array(F.support_lo)) >= targets
    hi = np.where(at_lo, F.support_lo, hi)
    tol = _inverse_tol(F)
    for _ in range(80):
        gap = hi - lo
        if np.all(gap <= tol):
            break
        mid = 0.5 * (lo + hi)
        ge = eval_cdf(F, mid) >= targets
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)
    return hi


def generalized_inverse(F: MonotoneCDF, m: float) -> float:
    """inf{x : F(x) >= m} with the left-plateau convention; m = 0 maps to the
    left support edge."""
    M = F.total_mass
    if not math.isfinite(m):
        raise OutOfRange(f"mass target must be finite, got {m}")
    if m < -1e-12 * max(M, 1.0) or m > M * (1 + 1e-12) + 1e-300:
        raise OutOfRange(f"mass target {m} outside [0, {M}]")
    if M == 0.0 or m <= 0.0:
        return F.support_lo
    m = min(m, M)
    return float(_ginv_array(F, np.array([m]))[0])


def mass_uniform_partition(F: MonotoneCDF, n: int) -> list:
    """Split the support into n cells of (approximately) equal mass.

    Interior boundaries are generalized inverses of k*M/n and therefore snap
    to the left edges of plateaus; cell masses are the actual F increments so
    they telescope to the total mass exactly.
    """
    if n < 1:
        raise BadParams(f"partition size must be >= 1, got {n}")
    if F.total_mass <= 0.0:
        raise ZeroMass("cannot mass-partition a zero-mass CDF")
    bounds, fvals = _partition_arrays(F, n)
    widths = bounds[1:] - bounds[:-1]
    with np.errstate(divide="ignore"):
        wlog = np.log(widths)
    masses = fvals[1:] - fvals[:-1]
    return [
        MassInterval(float(bounds[k]), float(bounds[k + 1]), float(masses[k]), float(wlog[k]))
        for k in range(n)
    ]


def _partition_arrays(F: MonotoneCDF, n: int):
    """Partition boundaries and their F values as arrays (engine fast path).

    F values are forced to 0 at the left edge and to the total mass at the
    right edge so cell masses always telescope to the total; any jump sitting
    exactly at the left support edge is charged to the first cell.
    """
    M = F.total_mass
    if n == 1:
        bounds = np.array([F.support_lo, F.support_hi])
    else:
        targets = M * np.arange(1, n) / n
        inner = _ginv_array(F, targets)
        bounds = np.concatenate(([F.support_lo], inner, [F.support_hi]))
        bounds = np.maximum.accumulate(bounds)
    fvals = eval_cdf(F, bounds)
    fvals = np.maximum.accumulate(fvals)
    fvals[0] = 0.0
    fvals[-1] = M
    fvals = np.minimum(fvals, M)
    return bounds, fvals


# ----------------------------------------------------------------------
# Constructors


def _check_monotone_sampled(F: MonotoneCDF, samples: int = 257) -> None:
    xs = np.linspace(F.support_lo - 1.0, F.support_hi + 1.0, samples)
    vals = eval_cdf(F, xs)
    if np.any(np.diff(vals) < -1e-12 * max(F.total_mass, 1.0)):
        raise BadParams("evaluator is not nondecreasing on a sampled grid")


def _check_continuity_sampled(F: MonotoneCDF, samples: int = 257) -> None:
    """Sampled modulus check: max increment at dyadic h must die out."""
    if F.total_mass == 0.0:
        return
    span = max(F.support_hi - F.support_lo, 1e-30)
    xs = np.linspace(F.support_lo - span * 0.01, F.support_hi, samples)
    # increments at scale span*2^-22 must be well below the total mass
    h = span * 2.0**-22
    inc = np.max(eval_cdf(F, xs + h) - eval_cdf(F, xs))
    if inc > 0.2 * F.total_mass:
        raise DiscontinuousInput(
            "constructor claims continuity but sampled increments do not decay"
        )


def _finalize(F: MonotoneCDF) -> MonotoneCDF:
    _check_monotone_sampled(F)
    if F.continuous:
        _check_continuity_sampled(F)
    return F


def uniform_cdf(lo: float = 0.0, hi: float = 1.0, mass: float = 1.0) -> MonotoneCDF:
    """CDF of mass spread uniformly over [lo, hi]."""
    if not (hi > lo):
        raise MalformedInterval(f"need hi > lo, got [{lo}, {hi}]")
    if mass < 0:
        raise BadParams("mass must be >= 0")
    span = hi - lo

    def ev(x):
        return mass * np.clip((x - lo) / span, 0.0, 1.0)

    def quant(m):
        if mass == 0.0:
            return np.full(np.shape(m), lo, dtype=float)
        return lo + span * np.clip(m / mass, 0.0, 1.0)

    return _finalize(
        MonotoneCDF(lo, hi, mass, ev, KIND_PIECEWISE_LINEAR, True,
                    {"lo": lo, "hi": hi, "mass": mass}, quant)
    )


def power_law_cdf(c: float, alpha: float, R: float) -> MonotoneCDF:
    """F(r) = c * r**alpha on [0, R], the canonical power-law radial profile."""
    if c <= 0 or R <= 0:
        raise BadParams(f"need c > 0 and R > 0, got c={c}, R={R}")
    if not (0 < alpha <= 1):
        raise BadParams(f"exponent must lie in (0, 1], got {alpha}")
    mass = c * R**alpha

    def ev(x):
        return c * np.clip(x, 0.0, R) ** alpha

    def quant(m):
        return np.clip(np.clip(m, 0.0, mass) / c, 0.0, None) ** (1.0 / alpha)

    return _finalize(
        MonotoneCDF(0.0, R, mass, ev, KIND_POWER_LAW, True,
                    {"c": c, "alpha": alpha, "R": R}, quant)
    )


def arcsin_profile_cdf() -> MonotoneCDF:
    """F(r) = (2/pi) * arcsin(r/2) on [0, 2]: the radial profile of the unit
    uniform circle measure about a point on the circle."""

    def ev(x):
        return (2.0 / math.pi) * np.arcsin(np.clip(x, 0.0, 2.0) / 2.0)

    def quant(m):
        return 2.0 * np.sin(0.5 * math.pi * np.clip(m, 0.0, 1.0))

    return _finalize(
        MonotoneCDF(0.0, 2.0, 1.0, ev, KIND_ARCSIN_PROFILE, True, {}, quant)
    )


def table_cdf(xs: Sequence[float], fs: Sequence[float]) -> MonotoneCDF:
    """Right-continuous step CDF through sorted (x, F) pairs.

    This is the atomic kind: F jumps to fs[k] at xs[k].  It never carries the
    continuity flag, so engines requiring continuity reject it up front.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or xs.shape != fs.shape:
        raise BadParams("table needs matching nonempty x and F arrays")
    if np.any(np.diff(xs) < 0):
        raise BadParams("table x values must be sorted")
    if np.any(np.diff(fs) < 0) or fs[0] < 0:
        raise BadParams("table F values must be nondecreasing and >= 0")
    total = float(fs[-1])

    def ev(x):
        idx = np.searchsorted(xs, x, side="right")
        padded = np.concatenate(([0.0], fs))
        return padded[idx]

    def quant(m):
        idx = np.searchsorted(fs, np.asarray(m, dtype=float), side="left")
        return xs[np.minimum(idx, xs.size - 1)]

    return _finalize(
        MonotoneCDF(float(xs[0]), float(xs[-1]), total, ev, KIND_TABLE_SAMPLED,
                    False, {"xs": xs.tolist(), "fs": fs.tolist()}, quant)
    )


def scale_cdf(F: MonotoneCDF, c: float) -> MonotoneCDF:
    """Scale the measure's mass by c > 0 (same support, same shape)."""
    if c <= 0:
        raise BadParams("mass scale must be positive")
    base = F.evaluator

    def ev(x):
        return c * np.asarray(base(x), dtype=float)

    base_q = F.quantile
    quant = None
    if base_q is not None:
        def quant(m):
            return base_q(np.asarray(m, dtype=float) / c)

    params = dict(F.params)
    params["scaled_by"] = c * params.get("scaled_by", 1.0)
    return MonotoneCDF(F.support_lo, F.support_hi, c * F.total_mass, ev,
                       F.kind, F.continuous, params, quant)


def translate_cdf(F: MonotoneCDF, t: float) -> MonotoneCDF:
    """Translate the measure by t."""
    if not math.isfinite(t):
        raise BadParams("translation must be finite")
    base = F.evaluator

    def ev(x):
        return np.asarray(base(np.asarray(x, dtype=float) - t), dtype=float)

    base_q = F.quantile
    quant = None
    if base_q is not None:
        def quant(m):
            return np.asarray(base_q(m), dtype=float) + t

    params = dict(F.params)
    params["translated_by"] = t + params.get("translated_by", 0.0)
    return MonotoneCDF(F.support_lo + t, F.support_hi + t, F.total_mass, ev,
                       F.kind, F.continuous, params, quant)


# ----------------------------------------------------------------------
# Step densities in log space


def _fsum(*parts: float) -> float:
    return math.fsum(parts)


@dataclass(frozen=True)
class Block:
    """One block h * 1_[a, a+d] stored as logs.

    d_log/h_log may carry low-order compensation parts so that combinations
    like 2*h_log + 2*d_log cancel exactly even when the leading parts are of
    order 4**n; all derived quantities combine the parts with math.fsum
    before exponentiating.
    """

    a: float
    d_log: float
    h_log: float
    d_log_lo: float = 0.0
    h_log_lo: float = 0.0

    def __post_init__(self):
        if self.d_log + self.d_log_lo > 0.0:
            raise BadParams("block width must satisfy d <= 1 (d_log <= 0)")
        if _fsum(self.h_log, self.h_log_lo) < 0.0:
            raise BadParams("block height must satisfy h >= 1 (h_log >= 0)")

    def width(self) -> float:
        """Block width; 0.0 when exp underflows (treated as zero width)."""
        return math.exp(_fsum(self.d_log, self.d_log_lo))

    def mass(self) -> float:
        """h * d computed fully in log space."""
        return math.exp(_fsum(self.h_log, self.h_log_lo, self.d_log, self.d_log_lo))

    def mass_log(self) -> float:
        return _fsum(self.h_log, self.h_log_lo, self.d_log, self.d_log_lo)

    def h_log_total(self) -> float:
        return _fsum(self.h_log, self.h_log_lo)

    def d_log_total(self) -> float:
        return _fsum(self.d_log, self.d_log_lo)


@dataclass(frozen=True)
class StepDensity:
    """Finite sum of disjoint tall blocks f = sum_n h_n 1_[a_n, a_n+d_n].

    Blocks must be ordered with a_n + d_n <= a_(n+1).  The list is a finite
    truncation of a possibly infinite construction; series diagnostics treat
    the block index as the truncation parameter.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise BadParams("step density needs at least one block")
        prev_end = -math.inf
        for b in blocks:
            if b.a < prev_end - 1e-15 * max(1.0, abs(b.a)):
                raise OverlapError("blocks overlap or are out of order")
            prev_end = b.a + b.width()

    @property
    def n_max(self) -> int:
        return len(self.blocks)

    def total_mass(self) -> float:
        return _fsum(*(b.mass() for b in self.blocks))

    def support(self):
        first, last = self.blocks[0], self.blocks[-1]
        return first.a, last.a + last.width()


def l1_divergent_blocks(n_max: int) -> StepDensity:
    """The unit-mass staircase of ever taller, thinner blocks whose energy
    lower-bound terms are all exactly 1.

    Block n has d_log = -2**(2n) and h = 1/(2**n * d_n), so h_n * d_n = 2**-n
    and h_n**2 * d_n**2 * log(1/d_n) = 1.  Blocks sit at a_n = 2n, a spacing
    above 1 + d_1 that keeps cross terms outside the kernel window.
    """
    if n_max < 1:
        raise BadParams("need at least one block")
    blocks = []
    for n in range(1, n_max + 1):
        d_hi = -float(4**n)        # exact: power of two
        h_hi = float(4**n)
        h_lo = -n * LN2
        blocks.append(Block(a=2.0 * n, d_log=d_hi, h_log=h_hi,
                            d_log_lo=0.0, h_log_lo=h_lo))
    return StepDensity(tuple(blocks))


def cdf_from_step_density(f: StepDensity) -> MonotoneCDF:
    """Integrate a step density into its CDF.

    Inside block n the evaluator uses mass_n * (x - a_n)/d_n, computed from
    the log-space mass so overflowing heights never appear; blocks whose
    width underflows contribute a jump at a_n (kind stays StepIntegral, and
    the continuity flag reflects whether every block width is resolvable).
    """
    starts = np.array([b.a for b in f.blocks])
    widths = np.array([b.width() for b in f.blocks])
    masses = np.array([b.mass() for b in f.blocks])
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    total = _fsum(*(b.mass() for b in f.blocks))
    # guard against fp drift between cumsum and fsum
    cum[-1] = total
    safe_w = np.maximum(widths, 5e-324)
    resolvable = bool(np.all(widths > 0.0))

    def ev(x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(starts, x, side="right") - 1
        idx = np.clip(idx, 0, len(starts) - 1)
        # dividing by subnormal widths overflows to inf; the clip maps that
        # to the correct "past the whole block" answer of 1
        with np.errstate(over="ignore"):
            frac = np.clip((x - starts[idx]) / safe_w[idx], 0.0, 1.0)
        return cum[idx] + masses[idx] * frac

    safe_m = np.maximum(masses, 5e-324)

    def quant(m):
        m = np.asarray(m, dtype=float)
        # first block whose cumulative mass reaches m (left-plateau rule:
        # targets landing exactly on a block boundary map to that block's end)
        idx = np.searchsorted(cum[1:], m, side="left")
        idx = np.clip(idx, 0, len(starts) - 1)
        frac = np.clip((m - cum[idx]) / safe_m[idx], 0.0, 1.0)
        return starts[idx] + widths[idx] * frac

    lo, hi = f.support()
    return MonotoneCDF(lo, hi, total, ev, KIND_STEP_INTEGRAL, resolvable,
                       {"n_blocks": f.n_max}, quant)


# ----------------------------------------------------------------------
# Sampled modulus helpers (shared by criteria, certificates and tail bounds)


def default_modulus_grid(F: MonotoneCDF, size: int = 4096) -> np.ndarray:
    """Deterministic x grid one unit wider than the support on each side,
    always containing both support endpoints (where one-sided moduli of
    concave profiles are attained) plus mass-uniform quantile points, so the
    sup is not missed on narrow regions that carry a macroscopic share of the
    mass (uniform spacing alone never lands inside them)."""
    xs = np.linspace(F.support_lo - 1.0, F.support_hi + 1.0, size)
    pts = [xs, np.array([F.support_lo, F.support_hi])]
    if F.total_mass > 0.0:
        targets = (np.arange(size, dtype=float) + 0.5) * (F.total_mass / size)
        pts.append(_ginv_array(F, targets))
    return np.unique(np.concatenate(pts))


def sampled_modulus(F: MonotoneCDF, ys, grid: np.ndarray | None = None):
    """sup_x F(x+y) - F(x) over a deterministic x grid, for each y."""
    if grid is None:
        grid = default_modulus_grid(F)
    ys_arr, scalar = _as_float_array(ys)
    if np.any(ys_arr < 0):
        raise BadParams("modulus scales must be >= 0")
    base = eval_cdf(F, grid)
    flat = ys_arr.reshape(-1)
    res = np.empty(flat.shape, dtype=float)
    for i, y in enumerate(flat):
        res[i] = np.max(eval_cdf(F, grid + y) - base)
    out = res.reshape(ys_arr.shape)
    out = np.maximum(out, 0.0)
    if scalar:
        return float(out)
    return out


def _log_modulus_ratios(ys: np.ndarray, incs: np.ndarray, beta: float, trunc: float):
    """The ratios inc * |ln y|**beta against the bound 1/|ln y|**beta.

    Returns (ratios, holds, worst ratio, its scale): holds when every ratio
    is at most 1 + trunc * |ln y|**beta + 1e-9, trunc the overshoot allowed
    for a truncated construction (0 for an exact one).
    """
    weight = np.abs(np.log(ys)) ** beta
    ratios = incs * weight
    k = int(np.argmax(ratios))
    holds = bool(np.all(ratios <= 1.0 + (trunc * weight + 1e-9)))
    return ratios, holds, float(ratios[k]), float(ys[k])
