"""Independent oracles for the numeric targets used across the test suite.

Everything in this file is computed from first principles with plain
numpy/math — no imports from the library under test — so that expected
values frozen into the tests have an independent origin.  Each oracle states
the mathematical identity it implements.
"""
from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


# ----------------------------------------------------------------------
# Uniform-measure energy: closed form and dense quadrature cross-check.
#
# For the uniform unit-mass measure on [0,1]:
#     E = int_0^1 int_0^1 -ln|x-y| dx dy = 3/2
# (|x-y| <= 1 so log+ and -ln coincide).  The dense oracle uses midpoint
# quadrature off the diagonal plus the exact closed form
#     int int_{[0,w]^2} -ln|x-y| dx dy = w^2 (3/2 - ln w)
# on each diagonal cell.


def square_log_integral(w: float) -> float:
    """Exact int int over [0,w]^2 of -ln|x-y|, for 0 < w <= 1."""
    return w * w * (1.5 - math.log(w))


def uniform_energy_oracle(n: int = 2048) -> float:
    """Dense-quadrature value of the uniform [0,1] energy (exact diagonal)."""
    w = 1.0 / n
    mid = (np.arange(n) + 0.5) * w
    total = n * square_log_integral(w)
    # off-diagonal midpoint terms, vectorized by lag
    for lag in range(1, n):
        d = mid[lag:] - mid[:-lag]
        total += 2.0 * w * w * float(np.sum(-np.log(d)))
    return float(total)


def one_sided_uniform_identity() -> float:
    """The one-sided form for F(x)=x on [0,1]: 2 int_0^1 (1-x)(1 - ln(1-x)) dx.

    With u = 1-x: 2 int_0^1 u(1 - ln u) du = 2 (1/2 + 1/4) = 3/2.
    """
    return 2.0 * (0.5 + 0.25)


# ----------------------------------------------------------------------
# Power-law energy: F(x) = c x^alpha on [0, R], R <= 1, of mass M = c R^alpha.
#
# With x = R U^(1/alpha), U uniform, -ln|x - y| splits into -ln R, plus
# -ln max(x, y)/R, whose mean is 1/(2 alpha), plus -ln(1 - W^(1/alpha)),
# where W = min/max of two independent uniforms is itself uniform, so its
# mean is psi(1 + alpha) + gamma = sum_{k>=1} alpha/(k (k + alpha)):
#     E = M^2 (1/(2 alpha) + sum_{k>=1} alpha/(k (k + alpha)) - ln R).
# alpha = 1/2, R = 1 gives 3 - 2 ln 2.


def power_law_energy_oracle(alpha: float, R: float = 1.0, c: float = 1.0,
                            terms: int = 10**6) -> tuple:
    """[lo, hi] enclosing the energy of c x^alpha on [0, R], R <= 1: the
    series summed to K = ``terms`` terms, and its tail, which is below
    alpha sum_{k>K} 1/k^2 < alpha/K."""
    k = np.arange(1, terms + 1, dtype=float)
    head = math.fsum(alpha / (k * (k + alpha)))
    m2 = (c * R**alpha) ** 2
    lo = m2 * (0.5 / alpha + head - math.log(R))
    return lo, lo + m2 * alpha / terms


# ----------------------------------------------------------------------
# Single-block density energy: h^2 * closed form on [0,d]^2 with d=1, h=2.


def block_energy_oracle(h: float = 2.0, d: float = 1.0, n: int = 4096) -> float:
    """Dense quadrature of h^2 * int int_{[0,d]^2} -ln|x-y| (d <= 1)."""
    w = d / n
    mid = (np.arange(n) + 0.5) * w
    total = n * square_log_integral(w)
    for lag in range(1, n):
        dist = mid[lag:] - mid[:-lag]
        total += 2.0 * w * w * float(np.sum(-np.log(dist)))
    return h * h * float(total)


# ----------------------------------------------------------------------
# Cantor functions: independent scalar recursion straight from the two-copy
# definition, and a frozen copy of the library's earlier vectorized
# evaluator for bit-for-bit comparisons.


def cantor_gamma_oracle(x: float, n: int, K: float = 3.0, ratios=None) -> float:
    """Level-n iterate of a two-copy Cantor function, scalar.

    ratios lists the per-level contraction ratios c_1, c_2, ... (default
    1/K at every level, the middle-(K-2)/K scheme).  Level n is
        F_n(x) = F_{n-1}(x / c_1)/2 + F_{n-1}((x - (1 - c_1)) / c_1)/2
    with F_0 the identity clamped to [0, 1], the ratio list shifted by one
    at each step.  For c <= 1/2 at most one copy lies strictly inside
    (0, 1); for c > 1/2 (overlapping copies) both may.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if n == 0:
        return x
    if ratios is None:
        ratios = [1.0 / K] * n
    c, rest = ratios[0], ratios[1:]
    return (0.5 * cantor_gamma_oracle(x / c, n - 1, ratios=rest)
            + 0.5 * cantor_gamma_oracle((x - (1.0 - c)) / c, n - 1, ratios=rest))


def gamma_eval_reference(x, ratios, levels: int) -> np.ndarray:
    """The library's vectorized Cantor evaluator as it stood before it was
    restructured to touch only live points, kept verbatim as the reference
    for bit-identity: a (banked value, coordinate, weight) triple per copy,
    with a full-length bincount at every level."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    t = x.reshape(-1).astype(float)
    size = t.size
    if size == 0:
        return np.zeros(shape)
    vals = np.zeros(size)
    idx = np.arange(size)
    w = np.ones(size)
    for k in range(levels):
        done_hi = t >= 1.0
        if np.any(done_hi):
            vals += np.bincount(idx[done_hi], weights=w[done_hi], minlength=size)
        keep = (t > 0.0) & ~done_hi
        t, w, idx = t[keep], w[keep], idx[keep]
        if t.size == 0:
            break
        c = float(ratios[k])
        cc = max(c, 5e-324)
        left = t / cc
        right = (t - (1.0 - c)) / cc
        half = 0.5 * w
        t = np.concatenate((left, right))
        w = np.concatenate((half, half))
        idx = np.concatenate((idx, idx))
    if t.size:
        vals += np.bincount(idx, weights=w * np.clip(t, 0.0, 1.0), minlength=size)
    return vals.reshape(shape)


# The double engine's lag loop as it stood before it ran in reused buffers,
# kept verbatim (with its two helpers) as the reference for bit-identity.

_TINY = 5e-324


def _kern(arr: np.ndarray) -> np.ndarray:
    """Vectorized kernel on positive distances (caller guarantees s > 0)."""
    with np.errstate(divide="ignore"):
        return np.maximum(-np.log(arr), 0.0)


def bracket_sums_reference(bounds, masses, cents, lag_lo: int, lag_hi: int, keep=None):
    """Per-lag lower/upper sums over cell pairs (i, i+L), L in [lag_lo,
    lag_hi): Jensen at the largest centroid gap below; above, the chord of
    log+ over [gap, span] at the smallest centroid gap (lag >= 2) or the
    wider cell's width raised to the lower (lag 1).  keep(L) selects pairs;
    the loop stops once every gap is beyond kernel range.  Also returns the
    number of pairs summed."""
    c_lo, c_hi = cents
    lows, ups = [], []
    pairs = 0
    n = masses.size
    cache = {}
    for L in range(lag_lo, min(lag_hi, n)):
        span = bounds[L + 1 :] - bounds[: n - L]
        ks = _kern(np.maximum(span, _TINY))
        cache[L] = ks
        kg = cache.pop(L - 2, None)
        if L >= 2:
            gap = bounds[L:n] - bounds[1 : n - L + 1]
            kg = _kern(np.maximum(gap, _TINY)) if kg is None else kg[1 : n - L + 1]
        else:
            wc = np.maximum(np.diff(bounds), _TINY)
            kg = _kern(np.maximum(wc[: n - 1], wc[1:]))
        # kg[0] first: the full scan runs only once one gap is out of range
        if L >= 2 and kg[0] <= 0.0 and float(np.max(kg)) <= 0.0:
            break
        mm = masses[: n - L] * masses[L:]
        d_hi = c_hi[L:] - c_lo[: n - L]
        d_lo = c_lo[L:] - c_hi[: n - L]
        idx = keep(L) if keep is not None else None
        if idx is not None:
            mm, span, ks, kg, d_hi, d_lo = mm[idx], span[idx], ks[idx], kg[idx], d_hi[idx], d_lo[idx]
            if L >= 2:
                gap = gap[idx]
        low = _kern(np.maximum(np.minimum(d_hi, span), _TINY))
        if L >= 2:
            frac = (np.maximum(d_lo, gap) - gap) / np.maximum(span - gap, _TINY)
            up = kg + (ks - kg) * np.minimum(frac, 1.0)
        else:
            up = np.maximum(kg, low)
        lows.append(2.0 * float(np.einsum("i,i->", mm, low)))
        ups.append(2.0 * float(np.einsum("i,i->", mm, up)))
        pairs += mm.size
    return lows, ups, pairs


def cantor_ginv_oracle(m: float, n: int = 48, K: float = 3.0) -> float:
    """inf{x : Gamma(x) >= m} by bisection against the level-n iterate."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cantor_gamma_oracle(mid, n, K) >= m:
            hi = mid
        else:
            lo = mid
    return hi


def cantor_modulus_oracle(y: float, n: int = 40, grid: int = 3000) -> float:
    """sup_x Gamma(x+y) - Gamma(x) over a dense grid (standard Cantor).

    The grid includes the support endpoints: for concave-at-the-edge CDFs the
    sup is attained at x = 0 (e.g. Gamma(0 + 1/9) - Gamma(0) = 1/4).
    """
    xs = np.concatenate((np.linspace(-0.5, 1.0, grid), [0.0, 1.0]))
    best = 0.0
    for x in xs:
        inc = cantor_gamma_oracle(x + y, n) - cantor_gamma_oracle(x, n)
        best = max(best, inc)
    return best


def cantor_energy_oracle(K: float = 3.0, depth: int = 30, terms: int = 60) -> float:
    """Energy of the level-`depth` middle-(K-2)/K Cantor measure, K > 2.

    Self-similarity: with c = 1/K, a = 1 - c and mu_k the measure built from
    levels k .. depth (mu_depth is uniform on [0,1], energy 3/2),
        mu_k = (S_L mu_{k+1} + S_R mu_{k+1}) / 2,  S_L x = c x,
        S_R x = a + c x,
    so E_k = (ln(1/c) + E_{k+1})/2 + X_k/2 with
        X_k = E[-ln(a + c Z)] = -ln a + sum_{i>=1} q^(2i) E[Z^(2i)] / (2i),
    Z = y - x for x, y independent under mu_{k+1} and q = c/a < 1 (Z is
    symmetric, so its odd moments vanish).  The moments of u = x - 1/2
    follow from u = c u' +- a/2:
        E[u^(2i)] = sum_l C(2i, 2l) c^(2l) E[u'^(2l)] (a/2)^(2i-2l),
    starting from the uniform E[u^(2l)] = 2^(-2l)/(2l+1), and
        E[Z^(2i)] = sum_l C(2i, 2l) E[u^(2l)] E[u^(2i-2l)].
    Every sum has positive terms only, so nothing cancels.  |Z| <= 1 bounds
    the series tail by q^(2 terms + 2) / ((2 terms + 2)(1 - q^2)).
    """
    c = 1.0 / K
    a = 1.0 - c
    q = c / a
    moms = [0.25**i / (2 * i + 1) for i in range(terms + 1)]  # uniform level
    energy = 1.5
    for _ in range(depth):
        z_moms = [
            math.fsum(math.comb(2 * i, 2 * l) * moms[l] * moms[i - l] for l in range(i + 1))
            for i in range(terms + 1)
        ]
        x = -math.log(a) + math.fsum(q ** (2 * i) * z_moms[i] / (2 * i) for i in range(1, terms + 1))
        energy = 0.5 * (math.log(K) + energy) + 0.5 * x
        moms = [
            math.fsum(math.comb(2 * i, 2 * l) * c ** (2 * l) * moms[l] * (0.5 * a) ** (2 * i - 2 * l)
                      for l in range(i + 1))
            for i in range(terms + 1)
        ]
    return energy


# ----------------------------------------------------------------------
# Circle measure facts.


def circle_r2_moment_oracle(n: int = 100) -> float:
    """sum (1/n) |x_k - (1,0)|^2 over n equispaced unit-circle points.

    |x - (1,0)|^2 = 2 - 2 cos(theta); the mean of cos over a full period of
    equispaced angles is 0, so the value is exactly 2.
    """
    th = 2.0 * math.pi * np.arange(n) / n
    return float(np.mean(2.0 - 2.0 * np.cos(th)))


def circle_energy_limit_oracle(blocks: int = 2_000_000) -> float:
    """Continuum energy of the uniform unit-circle probability measure.

    E = (1/pi) * Cl2(pi/3) where Cl2 is the Clausen function
    Cl2(t) = sum_k sin(k t)/k^2.  At t = pi/3 the sine values cycle with
    period 6 as (s, s, 0, -s, -s, 0), s = sqrt(3)/2, so the series groups
    into exactly summable blocks of six.
    """
    s = math.sqrt(3.0) / 2.0
    j = np.arange(blocks, dtype=float)
    block = (
        1.0 / (6 * j + 1) ** 2
        + 1.0 / (6 * j + 2) ** 2
        - 1.0 / (6 * j + 4) ** 2
        - 1.0 / (6 * j + 5) ** 2
    )
    cl2 = s * float(math.fsum(block))
    return cl2 / math.pi


def circle_energy_bruteforce_oracle(n: int = 4096) -> float:
    """Discrete i != j energy of the n-point circle cloud (direct sum)."""
    th = 2.0 * math.pi * np.arange(n) / n
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    w = 1.0 / n
    total = 0.0
    for lag in range(1, n):
        d = np.linalg.norm(pts[lag:] - pts[:-lag], axis=1)
        # wrap-around pairs: lag and n-lag cover each unordered pair twice
        # when enumerated this way, so enumerate ordered pairs directly:
        kern = np.maximum(-np.log(d), 0.0)
        total += 2.0 * w * w * float(np.sum(kern))
    return total


def arcsin_profile_oracle(r: np.ndarray) -> np.ndarray:
    """(2/pi) arcsin(r/2) clipped to [0,2] — radial CDF of the unit circle
    measure about the point (1,0)."""
    return (2.0 / math.pi) * np.arcsin(np.clip(r, 0.0, 2.0) / 2.0)


# ----------------------------------------------------------------------
# Step-density series (tall-block staircase): exact term arithmetic.


def staircase_term_oracle(n: int) -> float:
    """h_n^2 d_n^2 ln(1/d_n) for d_n = exp(-2^{2n}), h_n = 1/(2^n d_n).

    h_n^2 d_n^2 = 2^{-2n} and ln(1/d_n) = 2^{2n}, so every term is exactly 1.
    ln h_n = 2^{2n} - n ln2 is kept as the two-term sum (4^n, -n ln2): the
    leading part is a power of two, so fsum([2*4^n, -2n ln2, -2*4^n]) cancels
    the huge parts exactly and the term evaluates to 4^{-n} * 4^n up to a
    couple of ulps.
    """
    return math.exp(math.fsum([2.0 * 4.0**n, -2.0 * n * LN2, -2.0 * 4.0**n])) * (4.0**n)


def staircase_l1_oracle(n_max: int) -> float:
    """sum h_n d_n = sum 2^-n = 1 - 2^-n_max, exactly representable."""
    return float(math.fsum(2.0**-n for n in range(1, n_max + 1)))


def staircase_llogl_oracle(gamma: float, n_max: int = 50) -> float:
    """sum 2^-n * (ln(1+h_n))^gamma with ln h_n = 4^n - n ln2.

    For small h_log the exact log1p(exp(h_log)) is used; for large h_log,
    ln(1+h) = h_log + log1p(exp(-h_log)).
    """
    terms = []
    for n in range(1, n_max + 1):
        h_log = math.fsum([4.0**n, -n * LN2])
        if h_log < 40.0:
            L = math.log1p(math.exp(h_log))
        else:
            L = h_log + math.log1p(math.exp(-min(h_log, 745.0)))
        terms.append(math.exp(-n * LN2 + gamma * math.log(L)))
    return float(math.fsum(terms))


# ----------------------------------------------------------------------
# Step densities of small span: exact energy from a second antiderivative.
#
# psi(t) = t^2 (3/2 - ln t) / 2 has psi'' = -ln t and psi(0) = 0, so for
# disjoint blocks [a, a + d] left of [b, b + e] at distances below 1
#     int int -ln(y - x) dx dy = psi(b + e - a) - psi(b - a)
#                                - psi(b + e - a - d) + psi(b - a - d)
# and a block's own square gives 2 psi(d) = d^2 (3/2 - ln d).


def _psi(t: float) -> float:
    return 0.5 * t * t * (1.5 - math.log(t)) if t > 0.0 else 0.0


def step_density_energy_oracle(blocks) -> float:
    """Energy of sum h 1[a, a + d] over (a, d, h) triples, given in order,
    disjoint and within one unit interval (so log+ is -ln throughout)."""
    total = 0.0
    for i, (a, d, h) in enumerate(blocks):
        total += h * h * 2.0 * _psi(d)
        for b, e, g in blocks[i + 1:]:
            cross = _psi(b + e - a) - _psi(b - a) - _psi(b + e - a - d) + _psi(b - a - d)
            total += 2.0 * h * g * cross
    return total


# ----------------------------------------------------------------------
# Planar pair sums and Biot-Savart velocities, one term at a time.


def pair_lower_oracle(points, weights) -> float:
    """2 sum_{i<j} w_i w_j max(-ln|x_i - x_j|, 0), +inf on coincident atoms.

    Visits each unordered pair once in plain Python and adds the terms with
    math.fsum, so the only rounding is in the terms themselves.
    """
    pts = [(float(x), float(y)) for x, y in points]
    ws = [float(w) for w in weights]
    terms = []
    for i, (xi, yi) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            d = math.hypot(xi - pts[j][0], yi - pts[j][1])
            if d == 0.0:
                return math.inf
            terms.append(ws[i] * ws[j] * max(-math.log(d), 0.0))
    return 2.0 * math.fsum(terms)


# The planar pair walk as it stood when each 512-row block was materialised
# whole, kept verbatim as the reference for bit-identity: per-row einsum
# over the columns j >= i0, then one einsum per block over its row sums.

PAIR_CHUNK_REFERENCE = 512


def _pair_blocks_reference(points):
    x, y = points.T
    for i0 in range(0, len(x), PAIR_CHUNK_REFERENCE):
        i1 = i0 + PAIR_CHUNK_REFERENCE
        yield i0, x[i0:i1, None] - x[i0:], y[i0:i1, None] - y[i0:]


def _block_pair_sum_reference(d, weights, i0: int) -> float:
    ks = _kern(d)
    np.copyto(ks[:, :len(ks)], 0.0, where=np.tri(len(ks), dtype=bool))
    rows = np.einsum("ij,j->i", ks, weights[i0:])
    return float(np.einsum("i,i->", weights[i0:i0 + len(ks)], rows))


def pair_lower_reference(points, weights) -> float:
    """2 sum_{i<j} w_i w_j k(|x_i - x_j|) in whole 512-row blocks."""
    return 2.0 * sum(_block_pair_sum_reference(np.hypot(dx, dy), weights, i0)
                     for i0, dx, dy in _pair_blocks_reference(points))


def radial_inequality_reference(points, weights, x0) -> dict:
    """The radial-reduction check and both pair sums in whole 512-row blocks."""
    r = np.hypot(points[:, 0] - float(x0[0]), points[:, 1] - float(x0[1]))
    holds = True
    lhs = rhs = 0.0
    slack = 4.0 * np.finfo(float).eps
    for i0, dx, dy in _pair_blocks_reference(points):
        s_xy = np.hypot(dx, dy)
        r_rows, r_cols = r[i0:i0 + len(dx), None], r[None, i0:]
        s_r = np.abs(r_rows - r_cols)
        holds = holds and bool(np.all(s_r <= s_xy + slack * (r_rows + r_cols)))
        lhs += _block_pair_sum_reference(s_xy, weights, i0)
        rhs += _block_pair_sum_reference(s_r, weights, i0)
    return {"lhs_lower": 2.0 * lhs, "rhs_lower": 2.0 * rhs, "holds_pointwise": holds}


def biot_savart_oracle(points, weights, xs, ys) -> tuple:
    """Velocity u(g) = sum_i w_i (g - x_i)^perp / (2 pi |g - x_i|^2), atom by atom.

    Returns (values, scale) with values[j, i] = u(xs[i], ys[j]) and scale the
    sum of the term sizes w_i / (2 pi |g - x_i|).  Each atom's terms are
    computed on the whole grid, and each cell's terms are added with
    math.fsum.
    """
    gx, gy = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    ux, uy, sizes = [], [], []
    for (px, py), w in zip(np.asarray(points, dtype=float), weights):
        dx, dy = gx - px, gy - py
        d2 = dx * dx + dy * dy
        ux.append(-w * dy / (2.0 * math.pi * d2))
        uy.append(w * dx / (2.0 * math.pi * d2))
        sizes.append(w / (2.0 * math.pi * np.sqrt(d2)))
    cells = gx.size

    def fsum_cells(terms):
        cols = np.stack(terms).reshape(len(terms), cells).T
        return np.array([math.fsum(c) for c in cols]).reshape(gx.shape)

    values = np.stack((fsum_cells(ux), fsum_cells(uy)), axis=-1)
    return values, fsum_cells(sizes)


class AtomOnGridReference(Exception):
    """Raised by biot_savart_direct_reference where the library raises AtomOnGrid."""


def biot_savart_direct_reference(P, grid) -> np.ndarray:
    """The velocity values of the all-direct blocked sweep, as it stood before
    far cells took a multipole expansion.

    Every cell sums every atom in blocks of whole rows of at most 2^16
    cell x atom entries, with the same arithmetic in the same order, so a
    cloud whose near square covers the grid must match it bit for bit.
    Raises AtomOnGridReference when an atom lies within 1e-12 * min(hx, hy)
    of a cell center.
    """
    if P.n_atoms == 0:
        raise ValueError("velocity field needs at least one atom")
    xs, ys = grid.centers()
    sep_floor = 1e-12 * min(grid.hx, grid.hy)
    dx = xs[:, None] - P.points[None, :, 0]
    dx2 = dx * dx
    ws = P.weights / (2.0 * math.pi)
    values = np.empty((grid.ny, grid.nx, 2), dtype=float)
    rows_per = max(1, (1 << 16) // (grid.nx * P.n_atoms))
    for j0 in range(0, grid.ny, rows_per):
        j1 = min(j0 + rows_per, grid.ny)
        ndy = P.points[None, :, 1] - ys[j0:j1, None]  # -(y - y_i)
        d2 = dx2 + (ndy * ndy)[:, None, :]
        if float(np.min(d2)) < sep_floor * sep_floor:
            raise AtomOnGridReference(
                f"an atom sits within {sep_floor:.3e} of a velocity sample"
            )
        scaled = np.divide(ws, d2, out=d2)
        values[j0:j1, :, 0] = np.einsum("rxn,rn->rx", scaled, ndy)
        values[j0:j1, :, 1] = np.einsum("rxn,xn->rx", scaled, dx)
    return values


# ----------------------------------------------------------------------
# Point-vortex kinetic energy over an annulus.


def annulus_kinetic_oracle(r_in: float, r_out: float) -> float:
    """int over {r_in <= |x| <= r_out} of |K(x)|^2 dx for a unit vortex.

    |u| = 1/(2 pi r), so the integral is (1/2pi) ln(r_out/r_in).
    """
    return math.log(r_out / r_in) / (2.0 * math.pi)


# ----------------------------------------------------------------------
# Tiny-dimension arithmetic.


def beta_pointwise_dim_oracle(n: int, beta: float = 2.0) -> float:
    """n ln2 / 2^{n/beta} — the pointwise dimension estimate of the
    generalized construction at level n."""
    return n * LN2 / (2.0 ** (n / beta))


def dim_slope_oracle(K: float) -> float:
    return LN2 / math.log(K)


# ----------------------------------------------------------------------
# Generalized-ratio facts used to pin construction choices.


def general_ratio_log_oracle(n: int, beta: float) -> float:
    """ln c_n = -(2^{n/beta} - 2^{(n-1)/beta}) with d_0 = 1."""
    if n == 1:
        return -(2.0 ** (1.0 / beta)) - 0.0
    return -(2.0 ** (n / beta)) + 2.0 ** ((n - 1) / beta)


# ----------------------------------------------------------------------
# Reference CSV writers: one row at a time, each float through fmt_reference.
# The library's writers must produce exactly this text.


def fmt_reference(x: float) -> str:
    """A double as a 17-significant-digit token (round-trips exactly)."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def trace_csv_reference(trace) -> str:
    """Refinement trace as CSV with header n,lower,upper."""
    lines = ["n,lower,upper"]
    for n, lo, up in trace:
        lines.append(f"{int(n)},{fmt_reference(lo)},{fmt_reference(up)}")
    return "\n".join(lines) + "\n"


def intervals_csv_reference(il) -> str:
    """Surviving construction intervals as CSV (level,index,lo,width_log)."""
    lines = ["level,index,lo,width_log"]
    for index, lo in enumerate(il.los):
        lines.append(f"{il.level},{index},{fmt_reference(lo)},{fmt_reference(il.width_log)}")
    return "\n".join(lines) + "\n"


def velocity_csv_reference(field) -> str:
    """Velocity samples as CSV (x,y,ux,uy), row-major over the grid."""
    lines = ["x,y,ux,uy"]
    for iy, y in enumerate(field.ys):
        for ix, x in enumerate(field.xs):
            ux, uy = field.values[iy, ix]
            lines.append(f"{fmt_reference(x)},{fmt_reference(y)},"
                         f"{fmt_reference(ux)},{fmt_reference(uy)}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print("uniform energy (n=2048):", uniform_energy_oracle(2048))
    print("uniform energy one-sided identity:", one_sided_uniform_identity())
    print("block energy h=2,d=1 (n=4096):", block_energy_oracle())
    print("cantor ginv(0.5):", cantor_ginv_oracle(0.5))
    print("cantor gamma_2(1/9):", cantor_gamma_oracle(1.0 / 9.0, 2))
    print("cantor gamma_40(1/3):", cantor_gamma_oracle(1.0 / 3.0, 40))
    print("cantor modulus y=1/9:", cantor_modulus_oracle(1.0 / 9.0))
    print("cantor energy K=3, 4:", cantor_energy_oracle(3.0), cantor_energy_oracle(4.0))
    print("circle r^2 moment about (1,0):", circle_r2_moment_oracle(100))
    print("circle energy limit (Clausen):", circle_energy_limit_oracle())
    print("circle energy brute n=1024:", circle_energy_bruteforce_oracle(1024))
    print("circle energy brute n=4096:", circle_energy_bruteforce_oracle(4096))
    print("staircase terms 1..5:", [staircase_term_oracle(n) for n in range(1, 6)])
    print("staircase l1 n=50:", staircase_l1_oracle(50), "vs", 1.0 - 2.0**-50)
    print("llogl gamma=0.4 n=50:", staircase_llogl_oracle(0.4))
    print("llogl gamma=0.6 partial n=12:", staircase_llogl_oracle(0.6, 12))
    print("llogl gamma=0.6 partial n=24:", staircase_llogl_oracle(0.6, 24))
    print("annulus KE 0.1..1:", annulus_kinetic_oracle(0.1, 1.0))
    print("beta=2 pointwise dim at n=36:", beta_pointwise_dim_oracle(36))
    print("dim slopes K=3,4,9:", [dim_slope_oracle(K) for K in (3, 4, 9)])
    print("general ratio c_2 (beta=2):", math.exp(general_ratio_log_oracle(2, 2.0)))
