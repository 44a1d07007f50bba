"""Independent reference values for the benchmark's checks.

Plain numpy/math only: nothing here imports ``logmeasure``, so a check that
compares the program against these numbers compares it against a separate
derivation.  Each function states the identity it evaluates.

All line measures below have support of length L <= 1, where every pair
distance is at most 1 and log+(1/|x-y|) = -ln|x-y|.  Dilating such a
measure by L therefore adds -ln L to its unit-mass energy, scaling the
mass by m multiplies the energy by m^2, and translation changes nothing:
E(m, L) = m^2 (E(1, 1) - ln L).
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def uniform_energy(length: float, mass: float) -> float:
    """Uniform measure of mass m on an interval of length L <= 1:
    m^2 (3/2 - ln L)."""
    return mass * mass * (1.5 - math.log(length))


def power_half_energy(R: float, mass: float) -> float:
    """F(r) = c sqrt(r) on [0, R], total mass M = c sqrt(R), R <= 1:
    M^2 (3 - 2 ln 2 - ln R)."""
    return mass * mass * (3.0 - 2.0 * math.log(2.0) - math.log(R))


def cantor_addresses(ratios) -> np.ndarray:
    """Left endpoints of the 2^n level-n intervals, built digit by digit.

    Interval i has binary address b_1 ... b_n (most significant digit
    first); its left endpoint is sum_k b_k (1 - c_k) c_1 ... c_(k-1).
    """
    n = len(ratios)
    idx = np.arange(2**n, dtype=np.int64)
    lo = np.zeros(idx.size)
    scale = 1.0
    for k, c in enumerate(ratios):
        bit = (idx >> (n - 1 - k)) & 1
        lo += bit * ((1.0 - c) * scale)
        scale *= c
    return lo


def cantor_energy(K: float, levels: int = 11) -> float:
    """Unit-mass middle-(K-2)/K Cantor measure on [0, 1], from
    self-similarity.

    With mu = (S1 mu + S2 mu)/2, S1 x = x/K and S2 x = (x + K - 1)/K, the
    energy satisfies E = 2 ln K - int int ln(K - 1 + y - x) dmu(x) dmu(y).
    The integrand is smooth (its argument is at least K - 2 > 0), so it is
    evaluated on the centres of the level-`levels` cylinders, each of mass
    2^-levels.
    """
    c = 1.0 / K
    centres = cantor_addresses([c] * levels) + 0.5 * c**levels
    total = 0.0
    for row in np.array_split(centres, 8):
        total += float(np.sum(np.log(K - 1.0 + centres[None, :] - row[:, None])))
    return 2.0 * math.log(K) - total / centres.size**2


def dilated_energy(unit_energy: float, length: float, mass: float) -> float:
    """Energy of a unit-mass, unit-length measure dilated to length L <= 1
    and scaled to mass m."""
    return mass * mass * (unit_energy - math.log(length))


def circle_energy() -> float:
    """Uniform unit mass on the unit circle: (1/pi) Cl_2(pi/3).

    Chords shorter than 1 subtend angles below pi/3, so
    E = (1/pi) int_0^(pi/3) -ln(2 sin(t/2)) dt.  The integrand splits into
    -ln t, integrated exactly, and the smooth -ln(sin(t/2)/(t/2)),
    integrated by 32-point Gauss-Legendre.
    """
    a = math.pi / 3.0
    nodes, weights = np.polynomial.legendre.leggauss(32)
    t = 0.5 * a * (nodes + 1.0)
    smooth = 0.5 * a * float(np.sum(weights * -np.log(np.sin(0.5 * t) / (0.5 * t))))
    return (a * (1.0 - math.log(a)) + smooth) / math.pi


def arcsin_profile(r: np.ndarray) -> np.ndarray:
    """Share of the uniform unit-circle measure within distance r of a point
    on the circle: (2/pi) arcsin(r/2)."""
    return (2.0 / math.pi) * np.arcsin(np.clip(r, 0.0, 2.0) / 2.0)


def vortex_speed(r: np.ndarray, mass: float = 1.0) -> np.ndarray:
    """Speed of the point vortex of circulation m at distance r: m/(2 pi r)."""
    return mass / (TWO_PI * r)


def annulus_energy(r_in: float, r_out: float, mass: float = 1.0) -> float:
    """int over r_in < |x| < r_out of (m/(2 pi |x|))^2 dx = m^2 ln(r_out/r_in)/(2 pi)."""
    return mass * mass * math.log(r_out / r_in) / TWO_PI


def _psi(t: float) -> float:
    """Second antiderivative of -ln t: psi(t) = t^2 (3/2 - ln t)/2, psi(0) = 0."""
    return 0.0 if t <= 0.0 else 0.5 * t * t * (1.5 - math.log(t))


def step_density_energy(blocks) -> float:
    """Energy of sum_i h_i 1[a_i, a_i + d_i] for disjoint, sorted blocks whose
    whole span is at most 1.

    A self pair gives h^2 d^2 (3/2 - ln d).  Blocks i < j give
    h_i h_j [psi(b_j - a_i) - psi(a_j - a_i) - psi(b_j - b_i) + psi(a_j - b_i)]
    with b = a + d, which is int int -ln(y - x) over the two blocks.
    """
    total = 0.0
    for i, (ai, di, hi) in enumerate(blocks):
        total += hi * hi * di * di * (1.5 - math.log(di))
        for aj, dj, hj in blocks[i + 1:]:
            bi, bj = ai + di, aj + dj
            cross = _psi(bj - ai) - _psi(aj - ai) - _psi(bj - bi) + _psi(aj - bi)
            total += 2.0 * hi * hj * cross
    return total
