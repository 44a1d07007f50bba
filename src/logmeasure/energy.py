"""Quadrature engines for the positive logarithmic energy of line measures.

Three engines share one bracketing discipline:

* ``energy_double_stieltjes`` — double Stieltjes sums over mass-uniform
  partitions.  The kernel log+ is convex and decreasing, so every cell pair
  at lag >= 2 is bracketed to second order: Jensen at the largest centroid
  gap below, the chord over [gap, span] at the smallest centroid gap above
  (Edmundson-Madansky); centroids are bracketed by Riemann sums of F.  Pairs
  within 8 parent cells of the diagonal are bracketed on a 16-fold finer
  nested partition, where self and touching pairs get layer-cake uppers from
  the sampled modulus of continuity; beyond that window the coarse brackets'
  second-order error stays below the fine partition's diagonal error (see
  _NEAR_WINDOW).  Those uppers are as rigorous as the sampled modulus
  (``upper_kind`` "modulus"); CDFs without a continuity certificate, or
  whose modulus shows no decay, keep an m_i m_j ln(1/width) upper there,
  labelled "heuristic".
* ``energy_one_sided`` — the equivalent one-sided form
  integral over x of [ int_0^1 (F(x+y) - F(x-y))/y dy ] dF(x)
  for continuous F, with an adaptive geometric grid in y and the double
  engine's modulus-of-continuity bound for the y -> 0 tail.
* ``energy_density`` — exact closed forms for step densities, evaluated in
  log space so blocks far beyond double-precision range still combine
  exactly.

Divergence is certified, never assumed: a ``Divergent`` verdict carries a
lower bound exceeding the configured budget, an identified atom-scale mass
concentration, or a growth certificate for the represented infinite block
series (those two set the lower bracket to +inf).  ``Inconclusive`` is an
explicit third verdict.  Every estimate records why its engine stopped
(``stop_reason``) and how its upper endpoint was obtained (``upper_kind``);
the double engine also records how many cell pairs each round bracketed
(``work``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadExponent,
    BadParams,
    DiscontinuousInput,
    NonpositiveDistance,
    ZeroMass,
)
from .measures import (
    LN2,
    MonotoneCDF,
    QuadratureConfig,
    StepDensity,
    _ginv_array,
    _inverse_tol,
    _partition_arrays,
    eval_cdf,
    sampled_modulus,
)

__all__ = [
    "EnergyEstimate",
    "VERDICT_FINITE",
    "VERDICT_DIVERGENT",
    "VERDICT_INCONCLUSIVE",
    "logplus_kernel",
    "energy_double_stieltjes",
    "energy_one_sided",
    "energy_density",
    "step_lower_bound",
    "holder_energy_bound",
]

VERDICT_FINITE = "FiniteConverged"
VERDICT_DIVERGENT = "Divergent"
VERDICT_INCONCLUSIVE = "Inconclusive"

# Why an engine stopped.
STOP_AGREEMENT = "agreement"
STOP_BUDGET = "budget"
STOP_ATOM = "atom"
STOP_SCHEDULE = "schedule_exhausted"
STOP_SERIES = "series_growth"

# How the upper endpoint was obtained: rigorous given the sampled modulus of
# continuity, heuristic, or exact (closed forms).
UPPER_MODULUS = "modulus"
UPPER_HEURISTIC = "heuristic"
UPPER_EXACT = "exact"

# Smallest positive double: width clips so that kernel values never become
# inf on cells whose width underflows (the atom rule preempts heavy cells).
_TINY = 5e-324
# Parent-cell distance up to which pairs are bracketed on the refined
# partition instead of the coarse one (the near bucket's window).  At parent
# lag L a coarse pair's Jensen/chord bracket is of width about
# m_i m_j (w / (L w))^2, so the far field beyond lag W leaves O(1/(n W)) in
# total, while the fine partition's self and touching terms already cost
# about ln(16 n) / (16 n).  At W = 8 the coarse part stays below the fine
# one (by ln(16 n) / 2, about 5x at n = 1024); a wider window would only add
# fine pairs, whose number grows linearly in W.  Both brackets are rigorous
# under any window.
_NEAR_WINDOW = 8
# Refinement factor of the near bucket's nested partition.
_NEAR_FACTOR = 16
# Riemann points per cell for the centroid brackets, on the coarse and on the
# near bucket's partition (each centroid is bracketed to width / points).
_CENTROID_POINTS = 256
_NEAR_CENTROID_POINTS = 16
# Cap on the one-sided engine's adaptive inner y-grid size.
_MAX_INNER_GRID = 8192
# Points per evaluator call in the one-sided column sums (per side) and in
# the centroid grids: about what keeps the evaluator's per-level temporaries
# inside a 4 MiB L2 cache.
_EVAL_BLOCK_POINTS = 1 << 15
# Fraction of total mass below which a resolution-floor-width cell is not
# treated as an atom (its diagonal term is then provably negligible).
_ATOM_MASS_FRACTION = 1e-6
# Series-growth sentinel: log partial sums must climb strictly across this
# many trailing blocks, by at least this total rise.  Shorter block lists
# carry no growth certificate.
_GROWTH_WINDOW = 10
_GROWTH_MIN_RISE = 0.01


@dataclass(frozen=True)
class EnergyEstimate:
    """Bracketed energy value with verdict and refinement trace.

    trace holds (partition size, lower sum, upper sum) triples; lower sums
    are nondecreasing along the trace because partitions are nested.
    stop_reason is one of the STOP_* names and upper_kind one of the UPPER_*
    names.  work holds one (partition size, near pairs, far pairs) triple
    per double-engine round: the cell pairs its lag sums bracketed on the
    near bucket's fine partition and on the coarse one.  A planar family or
    single-cloud estimate (planar.energy_planar) holds one (atoms, kernel
    evaluations, atom pairs represented) triple per level instead: n - 1
    kernels for the n (n - 1) / 2 pairs of a circle level, and both counts
    equal on a walked level.  The other line engines leave it empty.  All
    three are deterministic, so reports stay byte-identical.
    """

    value: float
    lower: float
    upper: float
    verdict: str
    trace: tuple
    stop_reason: str
    upper_kind: str
    work: tuple = ()

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "verdict": self.verdict,
            "stop_reason": self.stop_reason,
            "upper_kind": self.upper_kind,
            "trace": [list(t) for t in self.trace],
            "work": [list(t) for t in self.work],
        }


def logplus_kernel(s: float) -> float:
    """max(ln(1/s), 0) — the truncated logarithmic kernel at distance s > 0."""
    if not (s > 0.0):
        raise NonpositiveDistance(f"kernel distance must be positive, got {s}")
    if s >= 1.0:
        return 0.0
    return -math.log(s)


def _kern_inplace(arr: np.ndarray) -> np.ndarray:
    """The kernel max(-ln s, 0) on distances s >= 0, written over arr
    (callers that still need arr pass a copy).  s = 0 gives +inf, with a
    divide warning unless the caller ignores divide."""
    np.log(arr, out=arr)
    np.negative(arr, out=arr)
    return np.maximum(arr, 0.0, out=arr)


def holder_energy_bound(K: float, alpha: float, mass: float) -> float:
    """2 (K / alpha) * mass — energy bound for a (K, alpha)-Holder CDF."""
    if not (0.0 < alpha <= 1.0):
        raise BadExponent(f"exponent must lie in (0, 1], got {alpha}")
    if K <= 0.0:
        raise BadParams(f"modulus constant must be positive, got {K}")
    if mass < 0.0:
        raise BadParams(f"mass must be nonnegative, got {mass}")
    return 2.0 * (K / alpha) * mass


# ----------------------------------------------------------------------
# Double-Stieltjes engine


def _centroid_brackets(F: MonotoneCDF, bounds: np.ndarray, fvals: np.ndarray, R: int):
    """Brackets [c_lo, c_hi] of every cell's centroid, from F alone.

    Integration by parts gives the centroid of cell i as
    b_{i+1} - (1/m_i) int_{b_i}^{b_{i+1}} (F(x) - F_i) dx.  F is
    nondecreasing, so the left and right R-point Riemann sums of that
    integral differ by w_i m_i / R and enclose it: the centroid is bracketed
    to within w_i / R at the cost of R - 1 evaluator calls per cell.  Both
    ends are clamped into the cell; massless cells get the whole cell.
    """
    n = bounds.size - 1
    widths = np.diff(bounds)
    masses = np.diff(fvals)
    t = np.arange(1, R, dtype=float) / R
    inner = np.empty(n)
    # chunked so each evaluator call takes at most _EVAL_BLOCK_POINTS points;
    # every centroid is a sum over its own row, whatever the chunk
    step = max(1, _EVAL_BLOCK_POINTS // R)
    for a in range(0, n, step):
        b = min(n, a + step)
        grid = bounds[a:b, None] + widths[a:b, None] * t[None, :]
        vals = eval_cdf(F, grid.ravel()).reshape(grid.shape)
        vals = np.clip(vals, fvals[a:b, None], fvals[a + 1 : b + 1, None])
        inner[a:b] = np.sum(vals - fvals[a:b, None], axis=1)
    safe = masses > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c_hi = np.where(safe, bounds[1:] - widths * inner / (R * masses), bounds[1:])
    c_lo = np.where(safe, c_hi - widths / R, bounds[:-1])
    return np.clip(c_lo, bounds[:-1], bounds[1:]), np.clip(c_hi, bounds[:-1], bounds[1:])


def _bracket_sums(bounds, masses, cents, lag_lo: int, lag_hi: int, keep=None):
    """Lower/upper kernel sums over cell pairs (i, i+L) for L in [lag_lo, lag_hi).

    The kernel k = log+ is convex and decreasing.  With [d-, d+] the bracket
    of the pair's centroid gap (from the centroid brackets ``cents``), g its
    gap and s its span:

    * lower: Jensen, m_i m_j k(d+), where d+ <= s;
    * upper at lag >= 2: the chord of k over [g, s] at d-, where d- >= g
      (Edmundson-Madansky), m_i m_j [k(g) + (k(s) - k(g)) (d - g)/(s - g)];
    * upper at lag 1 (touching cells, no gap): m_i m_j k(wider width),
      raised to the lower where that is larger - a heuristic that the near
      bucket replaces when a modulus bound exists.

    Gaps and spans are clipped away from zero so zero-width interior cells
    cannot produce inf (the atom rule preempts any heavy concentration).
    The gap at lag L is an interior slice of the span at lag L-2, so each
    span kernel (log) pass is reused two lags later.  Once every gap is
    beyond kernel range the loop stops: gaps grow with the lag, and spans and
    centroid gaps are at least as wide, so all remaining terms are 0.

    keep(L), when given, returns the indices i of the pairs (i, i+L) to
    count at lag L, or None to count all of them.  Returns ordered per-lag
    partial sums (factor 2 for the two orderings of each pair included) and
    the number of pairs summed.

    The work buffers are allocated once per call, every pass writes into
    them with ``out=`` (the span kernels in a ring of three rows, so that
    lag L-2's row is still intact at lag L), and np.errstate is entered once.
    Each pair still goes through the same sequence of ufuncs as with fresh
    temporaries, and each lag's sums are the same two np.einsum reductions
    over contiguous rows, so the sums are bit-identical to an unbuffered
    loop.  np.einsum never calls BLAS, so they do not depend on the BLAS
    thread count either.
    """
    c_lo, c_hi = cents
    lows, ups = [], []
    pairs = 0
    n = masses.size
    lags = range(lag_lo, min(lag_hi, n))
    if not lags:
        return lows, ups, pairs
    width = n - lags[0]
    # one row per per-pair array, three ring rows for the span kernels, and
    # the gathered copies of the pair arrays when pairs are selected
    rows = np.empty((10, width))
    span_b, gap_b, kg_b, mm_b, low_b, frac_b, up_b = rows[:7]
    ring = rows[7:]
    sub = np.empty((7, width)) if keep is not None else None
    with np.errstate(divide="ignore"):
        for L in lags:
            r = n - L
            span = np.subtract(bounds[L + 1 :], bounds[:r], out=span_b[:r])
            ks = _kern_inplace(np.maximum(span, _TINY, out=ring[L % 3][:r]))
            if L >= 2:
                gap = np.subtract(bounds[L:n], bounds[1 : r + 1], out=gap_b[:r])
                if L - 2 >= lag_lo:
                    kg = ring[(L - 2) % 3][1 : r + 1]
                else:
                    kg = _kern_inplace(np.maximum(gap, _TINY, out=kg_b[:r]))
            else:
                gap = None
                wc = np.maximum(np.diff(bounds), _TINY)
                kg = _kern_inplace(np.maximum(wc[: n - 1], wc[1:], out=kg_b[:r]))
            # kg[0] first: the full scan runs only once one gap is out of range
            if L >= 2 and kg[0] <= 0.0 and float(np.max(kg)) <= 0.0:
                break
            mm = np.multiply(masses[:r], masses[L:], out=mm_b[:r])
            d_hi = np.subtract(c_hi[L:], c_lo[:r], out=low_b[:r])
            d_lo = np.subtract(c_lo[L:], c_hi[:r], out=frac_b[:r])
            idx = keep(L) if keep is not None else None
            if idx is not None:
                r = idx.size
                full = (mm, span, ks, kg, d_hi, d_lo) + ((gap,) if L >= 2 else ())
                picked = [np.take(x, idx, out=row[:r]) for x, row in zip(full, sub)]
                mm, span, ks, kg, d_hi, d_lo = picked[:6]
                gap = picked[6] if L >= 2 else None
            # d_hi becomes the lower kernel, d_lo the chord fraction, and the
            # chord's denominator the upper kernel.  The centroid brackets
            # lie in their cells and rounded subtraction is monotone in each
            # argument, so d_hi <= span, gap <= d_lo and d_lo - gap <= span -
            # gap hold exactly: no clamp is needed, and the chord fraction is
            # at most 1 (0 where span = gap, whose den is _TINY).
            low = _kern_inplace(np.maximum(d_hi, _TINY, out=d_hi))
            if L >= 2:
                frac = np.subtract(d_lo, gap, out=d_lo)
                den = np.maximum(np.subtract(span, gap, out=up_b[:r]), _TINY, out=up_b[:r])
                frac = np.divide(frac, den, out=frac)
                up = np.subtract(ks, kg, out=den)
                up = np.add(kg, np.multiply(up, frac, out=up), out=up)
            else:
                up = np.maximum(kg, low, out=up_b[:r])
            lows.append(2.0 * float(np.einsum("i,i->", mm, low)))
            ups.append(2.0 * float(np.einsum("i,i->", mm, up)))
            pairs += r
    return lows, ups, pairs


class _BallMass:
    """Upper bounds for J(m, U) = int_0^U min(m, w(u))/u du, w the sampled
    modulus, from octave sums: each octave [2^-k-1, 2^-k] contributes at most
    min(m, w(2^-k)) ln 2, the partial octave above the largest dyadic
    2^-j <= U at most m ln(U 2^j).  The table covers 2 >= u >= 2^-40; below
    it w decays geometrically at the table's last rate.

    Both line engines take their modulus bounds from here: the double
    engine's self and touching uppers, and the one-sided engine's y -> 0
    tail.
    """

    K0 = -1
    COUNT = 42

    def __init__(self, mods: np.ndarray, ratio: float):
        # a suffix maximum keeps the table nonincreasing in k, so that
        # min(m, w_k) switches from m to w_k exactly once
        self.mods = np.maximum.accumulate(mods[::-1])[::-1]
        self.ratio = ratio
        tail = self.mods[-1] * ratio / (1.0 - ratio)
        # suffix[p]: sum of the table from position p on, plus the tail
        self.suffix = np.concatenate((np.cumsum(self.mods[::-1])[::-1], [0.0])) + tail

    @classmethod
    def of(cls, F: MonotoneCDF):
        """The bound for a continuity-certified F, or None where the sampled
        modulus gives none (no certificate, or no decay at small scales).

        The table is w(2^-k) = sup_x F(x + 2^-k) - F(x) for k = K0 ..
        K0+COUNT-1.  The tail below it is extrapolated from the decay over
        the table's last seven octaves: ratio 0 when the modulus reads 0
        there (nothing left), no bound when it does not decay by at least
        0.7 (no continuity to exploit).
        """
        if not F.continuous:
            return None
        ys = 2.0 ** -np.arange(cls.K0, cls.K0 + cls.COUNT, dtype=float)
        mods = np.asarray(sampled_modulus(F, ys), dtype=float)
        last, prev = float(mods[-1]), float(mods[-8])
        if last <= 0.0:
            return cls(mods, 0.0)
        if prev <= 0.0 or last >= 0.7 * prev:
            return None
        return cls(mods, (last / prev) ** (1.0 / 7.0))

    def _sum_from(self, a: np.ndarray) -> np.ndarray:
        """sum of w_k over table-or-extrapolated positions >= a."""
        size = self.mods.size
        inside = self.suffix[np.minimum(a, size).astype(np.int64)]
        with np.errstate(under="ignore"):
            beyond = self.mods[-1] * self.ratio ** np.maximum(a - size + 1.0, 1.0) / (1.0 - self.ratio)
        return np.where(a <= size, inside, beyond)

    def integral(self, m: np.ndarray, U: np.ndarray) -> np.ndarray:
        m = np.maximum(m, _TINY)
        U = np.clip(U, _TINY, 2.0)
        j = np.ceil(-np.log2(U))
        top = m * np.maximum(np.log(U) + j * LN2, 0.0)
        # first position where the modulus drops to m; past the table it
        # follows from the geometric tail
        size = self.mods.size
        star = np.searchsorted(-self.mods, -m, side="left").astype(float)
        past = star >= size
        if np.any(past):
            with np.errstate(divide="ignore"):
                extra = np.ceil(np.log(m / self.mods[-1]) / math.log(self.ratio))
            star = np.where(past, size - 1.0 + np.maximum(extra, 1.0), star)
        pos = j - self.K0
        a = np.maximum(pos, star)
        return top + LN2 * (m * np.maximum(star - pos, 0.0) + self._sum_from(a))


def _diag_uppers(bounds: np.ndarray, masses: np.ndarray, ball: _BallMass):
    """Layer-cake uppers of the self pairs and of the touching pairs.

    For x in cell i, int k(|x-y|) dmu_j(y) = int_0^1 mu_j(B(x, r))/r dr, and
    the ball mass is at most min(m_j, w(diameter)) below the largest
    distance D and m_j above it:
    self (D = w): m (m k(w) + J(m, 2 min(w, 1)));
    touching (D = w_i + w_j): m_i (m_j k(D) + J(m_j, min(D, 1))), summed here
    over both orderings.  Returns (per-cell self uppers, per-pair touching
    uppers).
    """
    widths = np.maximum(np.diff(bounds), _TINY)
    self_up = masses * (masses * _kern_inplace(widths.copy())
                        + ball.integral(masses, 2.0 * np.minimum(widths, 1.0)))
    D = widths[:-1] + widths[1:]
    kD = _kern_inplace(D.copy())
    mi, mj = masses[:-1], masses[1:]
    Dc = np.minimum(D, 1.0)
    touch_up = mi * (mj * kD + ball.integral(mj, Dc)) + mj * (mi * kD + ball.integral(mi, Dc))
    return self_up, touch_up


def _near_bracket(F, bounds, fvals, atom_floor: float, ball):
    """Bracket all pairs within _NEAR_WINDOW parent cells of the diagonal.

    The near bucket is evaluated on the round's partition (bounds, fvals)
    _NEAR_FACTOR times finer, whose every _NEAR_FACTOR-th boundary is a
    coarse one, restricted to fine pairs whose parent cells are at most
    _NEAR_WINDOW apart (the coarse off-diagonal sums start just beyond that
    window, so every pair is counted exactly once).  The window needs to
    reach only as far as the coarse brackets' second-order error, which
    falls like the inverse square of the parent lag, stays below the fine
    diagonal's: 8 parent cells do (see _NEAR_WINDOW).  Fine pairs at lag >= 2
    get the second-order brackets of _bracket_sums.  Self and touching pairs
    get the lower k(width) and Jensen respectively, and the layer-cake uppers
    of _diag_uppers when ``ball`` holds a modulus bound; without one the
    self upper is m^2 k(w) and the touching upper m_i m_j k(wider width),
    both heuristic.

    For CDFs without a continuity certificate, a resolution-floor-width
    cell still carrying non-negligible mass certifies an atom: jump CDFs
    are flagged Divergent here (lower = +inf).  Continuity-certified CDFs
    never take that route - a width-floor cell then only reflects resolution
    exhaustion.

    Returns (near_lower, near_upper, near_pairs, atom_hit), near_pairs the
    fine pairs at lag >= 1 that the lag sums bracketed.
    """
    W, s = _NEAR_WINDOW, _NEAR_FACTOR
    widths = np.diff(bounds)
    masses = np.diff(fvals)
    m = masses.size
    if not F.continuous:
        # r consecutive width-floor cells mean r+1 mass-uniform quantile
        # targets share one point, certifying an atom of mass at least
        # r * total/(n*s) there (the realized cell masses are 0 - a jump's
        # mass lands in the first cell past it, so runs are the signature)
        collapsed = widths <= atom_floor
        if bool(np.any(collapsed)):
            pad = np.concatenate(([0], collapsed.view(np.int8), [0]))
            steps = np.diff(pad)
            runs = np.flatnonzero(steps == -1) - np.flatnonzero(steps == 1)
            if float(np.max(runs)) * F.total_mass / m >= _ATOM_MASS_FRACTION * F.total_mass:
                return math.inf, math.inf, 0, True
    parent = np.arange(m, dtype=np.int64) // s

    def keep(L):
        # lags up to W s lie entirely inside the window; above it only the
        # pairs whose parent distance is within the window count
        if L > W * s:
            return np.nonzero(parent[L:] - parent[: m - L] <= W)[0]
        return None

    cents = _centroid_brackets(F, bounds, fvals, _NEAR_CENTROID_POINTS)
    lows, ups, pairs = _bracket_sums(bounds, masses, cents, 1, (W + 1) * s, keep)
    diag_lo = float(np.sum(masses * masses * _kern_inplace(np.maximum(widths, _TINY))))
    diag_up = diag_lo
    if ball is not None:
        self_up, touch_up = _diag_uppers(bounds, masses, ball)
        diag_up = float(np.sum(self_up))
        ups[0] = float(np.sum(touch_up))
    return math.fsum([diag_lo] + lows), math.fsum([diag_up] + ups), pairs, False


def energy_double_stieltjes(F: MonotoneCDF, cfg: QuadratureConfig = QuadratureConfig()) -> EnergyEstimate:
    """Bracketed double-Stieltjes energy of the measure dF."""
    if F.total_mass <= 0.0:
        raise ZeroMass("energy of the zero measure requires positive mass")
    atom_floor = 64.0 * _inverse_tol(F)
    ball = _BallMass.of(F)
    kind = UPPER_MODULUS if ball is not None else UPPER_HEURISTIC
    trace = []
    work = []
    lower = 0.0
    upper = math.inf

    def done(value, lo, up, verdict, reason):
        return EnergyEstimate(value, lo, up, verdict, tuple(trace), reason, kind, tuple(work))

    for n in cfg.depth_schedule:
        # one partition per round, the near bucket's: the far field reads
        # every _NEAR_FACTOR-th boundary, so the two nest by construction.
        # The near bucket goes first: an atom ends the solve before any far field.
        bounds, fvals = _partition_arrays(F, n * _NEAR_FACTOR)
        near_lo, near_up, near_pairs, atom_hit = _near_bracket(F, bounds, fvals, atom_floor, ball)
        if atom_hit:
            work.append((n, 0, 0))
            trace.append((n, math.inf, math.inf))
            return done(math.inf, math.inf, math.inf, VERDICT_DIVERGENT, STOP_ATOM)
        off_lo = off_up = 0.0
        far_pairs = 0
        if n > _NEAR_WINDOW + 1:
            bounds, fvals = bounds[::_NEAR_FACTOR], fvals[::_NEAR_FACTOR]
            cents = _centroid_brackets(F, bounds, fvals, _CENTROID_POINTS)
            lows, ups, far_pairs = _bracket_sums(bounds, np.diff(fvals), cents, _NEAR_WINDOW + 1, n)
            off_lo, off_up = math.fsum(lows), math.fsum(ups)
        work.append((n, near_pairs, far_pairs))
        # every round's sum is a valid lower bound of the same integral, so
        # the running maximum is one too and keeps the trace monotone even
        # when pairs migrate between the fine and coarse treatments
        lower = max(off_lo + near_lo, lower)
        upper = max(off_up + near_up, lower)
        trace.append((n, lower, upper))
        if lower > cfg.divergence_budget:
            return done(lower, lower, math.inf, VERDICT_DIVERGENT, STOP_BUDGET)
        if upper - lower <= cfg.agreement_tol * max(1.0, lower):
            return done(0.5 * (lower + upper), lower, upper, VERDICT_FINITE, STOP_AGREEMENT)
    value = 0.5 * (lower + upper) if math.isfinite(upper) else lower
    return done(value, lower, upper, VERDICT_INCONCLUSIVE, STOP_SCHEDULE)


# ----------------------------------------------------------------------
# One-sided engine


def energy_one_sided(F: MonotoneCDF, cfg: QuadratureConfig = QuadratureConfig()) -> EnergyEstimate:
    """One-sided form of the energy for continuous CDFs.

    Outer integral: midpoint atoms x_i of a mass-uniform partition, each of
    mass w.  Inner integral over y in [2^-52, 1]: a geometric doubling grid
    y_j, adaptively subdivided where the rigorous per-segment brackets are
    widest (the inner increment D(x, y) = F(x+y) - F(x-y) is nondecreasing
    in y); the tail below 2^-52 is bounded by the sampled modulus of
    continuity w.  D(x, y) is at most 2 w(y), so the tail is at most
    2 J(M, 2^-52), M the total mass, with J the octave bound of _BallMass
    that the double engine uses too; where _BallMass gives no bound (the
    modulus shows no decay) the upper is +inf.  Everything the inner
    brackets need is the column sums S_j = sum_i D(x_i, y_j): with
    dln_j = ln(y_{j+1}/y_j), the lower sum is w sum_j S_j dln_j, the upper
    sum w sum_j S_{j+1} dln_j and segment j's width w (S_{j+1} - S_j) dln_j.
    The column sums are kept while the y-grid is refined, so F is evaluated
    at each x_i +- y_j once per outer level, on the new y values only.  The
    sums are plain numpy reductions and einsum, never BLAS, so the result
    does not depend on the BLAS thread count.  The outer midpoint rule is
    the documented heuristic part of this engine's bracket, so the verdict
    additionally requires the outer value to have drifted by at most half a
    tolerance over two consecutive refinements.  Only depth_schedule entries
    in [2^8, 2^13] are used as outer partition sizes; a schedule with none
    raises BadParams.
    """
    if not F.continuous:
        raise DiscontinuousInput(
            "the one-sided energy form requires a continuity-certified CDF"
        )
    if F.total_mass <= 0.0:
        raise ZeroMass("energy of the zero measure requires positive mass")
    outer_schedule = [n for n in cfg.depth_schedule if 2**8 <= n <= 2**13]
    if not outer_schedule:
        raise BadParams(
            "the one-sided engine's outer partition needs a depth_schedule entry "
            f"in [2^8, 2^13], got {tuple(cfg.depth_schedule)}"
        )
    M = F.total_mass
    y_min = 2.0**-52
    ball = _BallMass.of(F)
    tail_up = math.inf if ball is None else 2.0 * float(ball.integral(M, y_min))
    trace = []
    prev_value = None
    ok_streak = 0
    lower = 0.0
    upper = math.inf
    value = 0.0
    # the adaptive geometric y-grid persists across outer refinements
    ys = np.sort(2.0 ** (-np.arange(53, dtype=float)))  # 2^-52 .. 1, doubling
    for n in outer_schedule:
        targets = M * (np.arange(n) + 0.5) / n
        xs = _ginv_array(F, targets)
        w = M / n
        S = _column_sums(F, xs, ys)
        for _ in range(64):
            dln = np.log(ys[1:] / ys[:-1])
            inner_lo = w * float(np.einsum("j,j->", S[:-1], dln))
            inner_up = w * float(np.einsum("j,j->", S[1:], dln))
            if (
                inner_up - inner_lo <= cfg.agreement_tol * max(1.0, inner_lo)
                or ys.size >= _MAX_INNER_GRID
            ):
                break
            # grow the grid geometrically, giving each segment new interior
            # points in proportion to its share of the bracket width
            width_per_seg = w * (S[1:] - S[:-1]) * dln
            budget = min(ys.size, _MAX_INNER_GRID - ys.size)
            total_w = float(np.sum(width_per_seg))
            alloc = np.floor(width_per_seg / max(total_w, _TINY) * budget).astype(np.int64)
            if not np.any(alloc > 0):
                alloc[int(np.argmax(width_per_seg))] = 1
            cum = np.cumsum(alloc)
            pos = np.arange(cum[-1]) - np.repeat(cum - alloc, alloc)
            t = (pos + 1.0) / np.repeat(alloc + 1.0, alloc)
            log_lo = np.repeat(np.log(ys[:-1]), alloc)
            new = np.exp(log_lo + t * np.repeat(dln, alloc))
            # merge into the sorted grid, evaluating only the y values not
            # already in it
            merged = np.unique(np.concatenate((ys, new)))
            fresh = np.ones(merged.size, dtype=bool)
            fresh[np.searchsorted(merged, ys)] = False
            S_merged = np.empty(merged.size)
            S_merged[~fresh] = S
            S_merged[fresh] = _column_sums(F, xs, merged[fresh])
            ys, S = merged, S_merged
        lower = inner_lo
        upper = inner_up + M * tail_up
        value = 0.5 * (lower + upper) if math.isfinite(upper) else lower
        trace.append((n, lower, upper))
        if lower > cfg.divergence_budget:
            return EnergyEstimate(lower, lower, math.inf, VERDICT_DIVERGENT, tuple(trace),
                                  STOP_BUDGET, UPPER_HEURISTIC)
        if prev_value is not None and abs(value - prev_value) <= 0.5 * cfg.agreement_tol * max(1.0, abs(value)):
            ok_streak += 1
        else:
            ok_streak = 0
        if (
            math.isfinite(upper)
            and upper - lower <= cfg.agreement_tol * max(1.0, lower)
            and ok_streak >= 2
        ):
            return EnergyEstimate(value, lower, upper, VERDICT_FINITE, tuple(trace),
                                  STOP_AGREEMENT, UPPER_HEURISTIC)
        prev_value = value
    return EnergyEstimate(value, lower, upper, VERDICT_INCONCLUSIVE, tuple(trace),
                          STOP_SCHEDULE, UPPER_HEURISTIC)


def _column_sums(F, xs, ys):
    """S_j = sum_i D(x_i, y_j) with D(x, y) = F(x+y) - F(x-y).

    F is evaluated on blocks of y columns of at most _EVAL_BLOCK_POINTS
    points per side (a single column when xs alone is larger), so that the
    evaluator's per-level temporaries stay in cache; larger blocks cost more
    per point, not less.  Each S_j is a pairwise row sum over all x_i, so it
    does not depend on the block size.
    """
    out = np.empty(ys.size)
    block = max(1, _EVAL_BLOCK_POINTS // max(1, xs.size))
    for s in range(0, ys.size, block):
        yc = ys[s : s + block, None]
        D = eval_cdf(F, xs[None, :] + yc) - eval_cdf(F, xs[None, :] - yc)
        out[s : s + block] = D.sum(axis=1)
    return out


# ----------------------------------------------------------------------
# Step-density engine: exact closed forms in log space


def _primitive_lin_log(alpha: float, beta: float, t: float) -> float:
    """Antiderivative of (alpha + beta t)(-ln t) at t (t > 0); 0 at t = 0.

    int (alpha + beta t)(-ln t) dt
      = alpha t (1 - ln t) + beta t^2 (1 - 2 ln t) / 4.
    """
    if t <= 0.0:
        return 0.0
    lt = math.log(t)
    return alpha * t * (1.0 - lt) + beta * t * t * (1.0 - 2.0 * lt) / 4.0


def _trapezoid_log_integral(g: float, d1: float, d2: float) -> float:
    """int over [0,d1] x [0,d2] (offset by gap g >= 0) of log+ 1/|x-y|.

    With t the pair distance, the overlap length is the trapezoid
    lambda(t) = min(t - g, d1, d2, g + d1 + d2 - t) on [g, g + d1 + d2];
    the integral is int lambda(t) (-ln t) dt clipped to t <= 1.
    """
    lo = g
    hi = g + d1 + d2
    a, b = min(d1, d2), max(d1, d2)
    # breakpoints of the trapezoid: rise until g+a, plateau until g+b, fall
    pieces = []  # (t0, t1, alpha, beta) with lambda = alpha + beta t
    pieces.append((lo, g + a, -g, 1.0))
    if b > a:
        pieces.append((g + a, g + b, a, 0.0))
    pieces.append((g + b, hi, g + d1 + d2, -1.0))
    total = 0.0
    for t0, t1, al, be in pieces:
        t1 = min(t1, 1.0)
        t0 = max(t0, 0.0)
        if t1 <= t0:
            continue
        total += _primitive_lin_log(al, be, t1) - _primitive_lin_log(al, be, t0)
    return max(total, 0.0)


def _line_segment_log_integral(x0: float, a: float, d: float) -> float:
    """int_a^{a+d} log+ 1/|x0 - y| dy for a point x0 outside [a, a+d]."""
    lo = abs(x0 - a)
    hi = abs(x0 - (a + d))
    t0, t1 = min(lo, hi), max(lo, hi)
    t1 = min(t1, 1.0)
    if t1 <= t0:
        return 0.0
    # primitive of -ln t is t(1 - ln t)
    def prim(t):
        return t * (1.0 - math.log(t)) if t > 0.0 else 0.0

    return max(prim(t1) - prim(t0), 0.0)


def _self_pair_energy(b) -> float:
    """Exact h^2 d^2 (3/2 - ln d) in log space (d <= 1 so log+ = -ln)."""
    m2_log = math.fsum([2.0 * b.h_log, 2.0 * b.h_log_lo, 2.0 * b.d_log, 2.0 * b.d_log_lo])
    neg_ld = -b.d_log_total()
    return math.exp(m2_log) * (1.5 + neg_ld)


def _cross_pair_energy(bi, bj) -> float:
    """Exact cross term between two disjoint blocks (bi left of bj)."""
    di, dj = bi.width(), bj.width()
    gap = bj.a - (bi.a + di)
    if gap >= 1.0:
        return 0.0
    mi, mj = bi.mass(), bj.mass()
    if di > 0.0 and dj > 0.0:
        # heights in log space: hi*hj * integral
        hh_log = math.fsum([bi.h_log, bi.h_log_lo, bj.h_log, bj.h_log_lo])
        integral = _trapezoid_log_integral(max(gap, 0.0), di, dj)
        if integral <= 0.0:
            return 0.0
        return math.exp(hh_log + math.log(integral))
    if di == 0.0 and dj == 0.0:
        dist = bj.a - bi.a
        if dist >= 1.0 or dist <= 0.0:
            return 0.0
        return mi * mj * (-math.log(dist))
    # one block is resolution-width zero: treat it as a point atom
    if di == 0.0:
        point, seg = bi.a, bj
        m_pt, h_log = mi, math.fsum([bj.h_log, bj.h_log_lo])
    else:
        point, seg = bj.a, bi
        m_pt, h_log = mj, math.fsum([bi.h_log, bi.h_log_lo])
    integral = _line_segment_log_integral(point, seg.a, seg.width())
    if integral <= 0.0:
        return 0.0
    return m_pt * math.exp(h_log + math.log(integral))


def _log_partial_sums(term_logs) -> list:
    """ln of the partial sums of exp(term_logs), accumulated in log space so
    that terms past the double range still combine; a term of -inf adds
    nothing."""
    partial = -math.inf
    partial_logs = []
    for tl in term_logs:
        partial = float(np.logaddexp(partial, tl))
        partial_logs.append(partial)
    return partial_logs


def _tail_growing(partial_logs) -> bool:
    """Sentinel test: log partial sums still climbing across the last
    _GROWTH_WINDOW blocks."""
    if len(partial_logs) <= _GROWTH_WINDOW:
        return False
    tail = partial_logs[-(_GROWTH_WINDOW + 1):]
    if any(b <= a for a, b in zip(tail, tail[1:])):
        return False
    return tail[-1] - tail[0] >= _GROWTH_MIN_RISE


def step_lower_bound(f: StepDensity) -> dict:
    """Per-block diagonal lower-bound series sum_n h_n^2 d_n^2 ln(1/d_n).

    Terms are evaluated as exp(2 ln h + 2 ln d) * (-ln d) with the exponent
    parts combined by compensated summation before exponentiation, so blocks
    whose widths underflow doubles still produce exact terms; a term whose
    log exceeds the overflow scale makes the partial sum +inf.  ``diverging``
    is a growth certificate for the represented infinite construction: the
    series-growth sentinel on the log partial sums, which needs more than
    _GROWTH_WINDOW blocks.
    """
    terms = []
    term_logs = []
    for b in f.blocks:
        e_log = math.fsum([2.0 * b.h_log, 2.0 * b.h_log_lo, 2.0 * b.d_log, 2.0 * b.d_log_lo])
        neg_ld = -b.d_log_total()
        term_logs.append(e_log + math.log(neg_ld) if neg_ld > 0.0 else -math.inf)
        terms.append(math.inf if e_log > 700.0 else math.exp(e_log) * max(neg_ld, 0.0))
    return {"terms": terms, "partial_sum": math.fsum(terms),
            "diverging": _tail_growing(_log_partial_sums(term_logs))}


def energy_density(f: StepDensity, cfg: QuadratureConfig = QuadratureConfig()) -> EnergyEstimate:
    """Exact block-pair energy of a step density.

    Self pairs and cross pairs use closed forms (log-space guarded); pairs
    separated by at least 1 are pruned.  The verdict is Divergent when the
    partial sum exceeds the budget or when the diagonal series carries a
    growth certificate for the represented infinite construction (the lower
    bracket is then +inf, standing for the certified limit, while the trace
    records the finite partial sum of the truncation).
    """
    blocks = f.blocks
    terms = [_self_pair_energy(b) for b in blocks]
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if blocks[j].a - (blocks[i].a + blocks[i].width()) >= 1.0:
                break
            terms.append(2.0 * _cross_pair_energy(blocks[i], blocks[j]))
    terms.sort(key=abs, reverse=True)
    total = math.fsum(terms)
    series = step_lower_bound(f)
    trace = ((f.n_max, total, total),)
    if total > cfg.divergence_budget:
        return EnergyEstimate(total, total, math.inf, VERDICT_DIVERGENT, trace, STOP_BUDGET, UPPER_EXACT)
    if series["diverging"]:
        return EnergyEstimate(math.inf, math.inf, math.inf, VERDICT_DIVERGENT, trace, STOP_SERIES, UPPER_EXACT)
    return EnergyEstimate(total, total, total, VERDICT_FINITE, trace, STOP_AGREEMENT, UPPER_EXACT)
