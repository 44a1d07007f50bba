"""Planar measures as weighted point clouds.

Everything two-dimensional lives here: direct pairwise log-kernel energy
with refinement-family verdicts, radial CDF extraction about a center
(closed-ball convention), the radial-reduction inequality and its exactness
checks, power-law radial profiles, Biot-Savart velocity fields with local
kinetic energy, and ring-mollified blob approximations of radial profiles.

``energy_planar`` dispatches on the cloud's provenance.  A line cloud is a
measure on the x-axis, whose planar log+ energy is its line energy, so it
goes to the double Stieltjes engine and gets that engine's certified
bracket.  A point mass is divergent at once.  Circle and blob clouds are
judged across a refinement family rebuilt from their provenance: a single
point cloud never certifies a finite energy, because every atomization
looks infinite at its own scale.  There the pairwise i != j sum is the
lower bracket, and the upper bracket adds a per-atom self-interaction
surcharge w_i^2 * k(cell diameter) (heuristic, documented).  Circle levels
sum their pairs by rotation class, n - 1 kernels per level; every other
cloud's pair walk evaluates each unordered pair once.  Neither they nor the
Biot-Savart sums call BLAS, so no result depends on its thread count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtomOnGrid,
    BadParams,
    EmptyMeasure,
    MalformedInterval,
    RegionOutsideGrid,
    TooFewPoints,
    ZeroMass,
)
from .energy import (
    STOP_AGREEMENT,
    STOP_ATOM,
    STOP_SCHEDULE,
    UPPER_HEURISTIC,
    EnergyEstimate,
    VERDICT_DIVERGENT,
    VERDICT_FINITE,
    VERDICT_INCONCLUSIVE,
    _kern_inplace,
    energy_double_stieltjes,
)
from .measures import (MonotoneCDF, QuadratureConfig, _fsum, _ginv_array,
                       power_law_cdf, table_cdf)

__all__ = [
    "PlanarMeasure",
    "RadialProfile",
    "GridSpec",
    "VelocityField",
    "PROV_CIRCLE",
    "PROV_DIRAC",
    "PROV_LINE",
    "PROV_BLOB",
    "PROV_CUSTOM",
    "FAMILY_TOL",
    "FAMILY_SCHEDULE",
    "BLOB_RING_POINTS",
    "planar_measure",
    "circle_measure",
    "dirac_at",
    "line_measure",
    "energy_planar",
    "radial_cdf",
    "radial_pushforward_check",
    "radial_inequality_check",
    "power_law_profile",
    "biot_savart",
    "local_kinetic_energy",
    "blob_approximation",
]

# Provenance kinds.  The refinement family of a cloud is rebuilt from these.
PROV_CIRCLE = "CircleUniform"
PROV_DIRAC = "DiracAt"
PROV_LINE = "LineCDF"
PROV_BLOB = "BlobMollified"
PROV_CUSTOM = "Custom"

# Relative agreement between successive refinement levels (and the size of
# the self-interaction surcharge) required to call a family converged.
FAMILY_TOL = 0.02
# Doubling refinement schedule for provenance-backed families.
FAMILY_SCHEDULE = (64, 128, 256, 512, 1024, 2048, 4096)
# Line clouds go to the double engine with the bracket width the family rule
# demands (surcharge at most half of FAMILY_TOL).
_LINE_CONFIG = QuadratureConfig(agreement_tol=FAMILY_TOL / 2)
# Direct O(n^2) sums only; above this the family schedule is truncated.
_MAX_ATOMS = 10_000
# Rows per block in the pair sums: each block's row sums are reduced by one
# einsum, which fixes the association order of every pair sum.
_PAIR_CHUNK = 512
# Entries per work block (about 512 KB each): grid cell x atom in the
# Biot-Savart row blocks, row x column in the pair sub-blocks.
_BLOCK_ELEMENTS = 1 << 16
# Biot-Savart multipole order: the smallest P whose far-cell truncation
# bound 2 * 3^-(P+1) (see biot_savart) is at most a quarter of an ulp of 1.
_EXPANSION_ORDER = math.ceil(math.log(8.0 / np.finfo(float).eps, 3.0)) - 1
# Sub-atoms per mollification ring.
BLOB_RING_POINTS = 8
# Radii closer than this relative gap are the same radius up to fp noise of
# the distance computation; they are merged deterministically (the group
# keeps its smallest member).  Without this, points that are mathematically
# equidistant (e.g. a unit circle about its center) split into 2-3 radii one
# ulp apart and the radial projection loses its collapse behavior.
_RADIUS_SNAP_RTOL = 8.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class PlanarMeasure:
    """Finite nonnegative planar measure as a weighted point cloud.

    points is an (n, 2) float array, weights an (n,) array of strictly
    positive weights.  provenance records the continuum measure this cloud
    discretizes plus its discretization parameter, so refinement families
    can be rebuilt; cell_diameters (per atom, set by the circle and blob
    builders) feed the self-interaction surcharge of the family's upper
    energy bracket.  Unknown diameters are treated as zero (infinite
    surcharge): a cloud of unknown origin never certifies finiteness.
    """

    points: np.ndarray
    weights: np.ndarray
    provenance: dict
    cell_diameters: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        ws = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] != ws.shape[0]:
            raise BadParams("need points of shape (n, 2) with matching weights")
        if not np.all(np.isfinite(pts)):
            raise BadParams("atom coordinates must be finite")
        if ws.size and (not np.all(np.isfinite(ws)) or not np.all(ws > 0.0)):
            raise BadParams("atom weights must be finite and > 0")
        if self.cell_diameters is not None:
            dm = np.asarray(self.cell_diameters, dtype=float)
            if dm.shape != ws.shape or (dm.size and not np.all(dm >= 0.0)):
                raise BadParams("cell diameters must be one >= 0 value per atom")
            object.__setattr__(self, "cell_diameters", dm)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", ws)

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return _fsum(*self.weights.tolist()) if self.weights.size else 0.0


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Radial cumulative profile G(r) = mass of the closed ball B(center, r)."""

    center: tuple
    G: MonotoneCDF


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lattice of cell centers over [lo_x, hi_x] x [lo_y, hi_y].

    Samples sit at cell centers (half-cell offset), so atoms placed on round
    coordinates never coincide with a sample by construction.
    """

    lo_x: float
    lo_y: float
    hi_x: float
    hi_y: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.lo_x < self.hi_x and self.lo_y < self.hi_y):
            raise MalformedInterval("grid extents must satisfy lo < hi on both axes")
        if self.nx < 1 or self.ny < 1:
            raise BadParams("grid needs at least one cell per axis")

    @property
    def hx(self) -> float:
        return (self.hi_x - self.lo_x) / self.nx

    @property
    def hy(self) -> float:
        return (self.hi_y - self.lo_y) / self.ny

    def centers(self) -> tuple:
        xs = self.lo_x + (np.arange(self.nx, dtype=float) + 0.5) * self.hx
        ys = self.lo_y + (np.arange(self.ny, dtype=float) + 0.5) * self.hy
        return xs, ys


@dataclass(frozen=True, eq=False)
class VelocityField:
    """Velocity samples values[j, i] = u(xs[i], ys[j]) on a cell-center grid.

    direct_cells and expansion_cells count the samples summed atom by atom
    and those taken from the multipole expansion; expansion_order is the
    expansion's truncation order for this cloud (used only when
    expansion_cells > 0).
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    hx: float
    hy: float
    direct_cells: int
    expansion_cells: int
    expansion_order: int


def planar_measure(points, weights, provenance: dict | None = None) -> PlanarMeasure:
    """Build a point-cloud measure from raw arrays (Custom provenance)."""
    prov = dict(provenance) if provenance is not None else {"kind": PROV_CUSTOM}
    return PlanarMeasure(np.asarray(points, dtype=float),
                         np.asarray(weights, dtype=float), prov)


def _exact_total_weights(mass: float, n: int) -> np.ndarray:
    """n near-equal weights whose compensated sum is exactly `mass`."""
    ws = np.full(n, mass / n, dtype=float)
    if n > 1:
        ws[-1] = mass - _fsum(*ws[:-1].tolist())
    else:
        ws[0] = mass
    return ws


def circle_measure(n: int) -> PlanarMeasure:
    """n equally spaced unit-weight-total atoms on the unit circle.

    The atoms start at a fixed 1-radian offset so the set has no reflection
    symmetry fixing a coordinate-axis point (1 rad is incommensurable with
    every spacing 2 pi / n).  An axis-symmetric placement makes distinct
    atoms project to bitwise-equal radii about axis points, which would turn
    the radial projection's honest k(0) = +inf convention into a spurious
    divergence certificate for a measure whose radial pushforward is
    genuinely diffuse.  Every rotation of the atom set represents the same
    uniform measure, so nothing else depends on the offset.
    """
    if n < 3:
        raise TooFewPoints(f"circle discretization needs n >= 3, got {n}")
    ang = 1.0 + 2.0 * math.pi * np.arange(n, dtype=float) / n
    pts = np.column_stack((np.cos(ang), np.sin(ang)))
    ws = _exact_total_weights(1.0, n)
    diam = np.full(n, 2.0 * math.pi / n)
    return PlanarMeasure(pts, ws, {"kind": PROV_CIRCLE, "n": n}, diam)


def dirac_at(point, mass: float = 1.0) -> PlanarMeasure:
    """A single atom of the given mass."""
    if not (mass > 0.0 and math.isfinite(mass)):
        raise BadParams(f"atom mass must be finite and > 0, got {mass}")
    x, y = float(point[0]), float(point[1])
    return PlanarMeasure(np.array([[x, y]]), np.array([mass]),
                         {"kind": PROV_DIRAC, "point": (x, y), "mass": mass})


def line_measure(F: MonotoneCDF, n: int) -> PlanarMeasure:
    """Mass-uniform atomization of a line measure eta(dx) x delta_0(dy).

    Atoms sit at the generalized inverses of the midpoint mass targets
    (k + 1/2) * mass / n on the x-axis.  The provenance keeps F, which is
    what energy_planar hands to the line engine.
    """
    if n < 1:
        raise BadParams(f"need n >= 1 atoms, got {n}")
    mass = F.total_mass
    if mass <= 0.0:
        raise ZeroMass("line measure needs strictly positive total mass")
    targets = (np.arange(n, dtype=float) + 0.5) * (mass / n)
    pts = np.column_stack((_ginv_array(F, targets), np.zeros(n)))
    return PlanarMeasure(pts, _exact_total_weights(mass, n),
                         {"kind": PROV_LINE, "n": n, "cdf": F})


def power_law_profile(c: float, alpha: float, R: float) -> RadialProfile:
    """Radial profile G(r) = c * r**alpha on [0, R], constant past R."""
    return RadialProfile((0.0, 0.0), power_law_cdf(c, alpha, R))


def blob_approximation(profile: RadialProfile, n: int, blob_radius: float) -> PlanarMeasure:
    """Ring-mollified mass-uniform atomization of a radial profile.

    The profile is atomized into n mass-uniform radial cells; each cell's
    atom is placed in one of ceil(sqrt(n)) angular sectors (alternate radial
    layers staggered by half a sector so atoms do not align along rays) and
    then replaced by a ring of BLOB_RING_POINTS sub-atoms at distance
    blob_radius - a discrete mollification at that scale.
    """
    if n < 1:
        raise BadParams(f"need n >= 1 atoms, got {n}")
    if not (blob_radius > 0.0 and math.isfinite(blob_radius)):
        raise BadParams(f"blob radius must be finite and > 0, got {blob_radius}")
    G = profile.G
    mass = G.total_mass
    if mass <= 0.0:
        raise ZeroMass("blob approximation needs strictly positive total mass")
    targets = (np.arange(n, dtype=float) + 0.5) * (mass / n)
    qs = _ginv_array(G, targets)
    edges = _ginv_array(G, np.arange(n + 1, dtype=float) * (mass / n))
    n_ang = int(math.ceil(math.sqrt(n)))
    idx = np.arange(n)
    sector = idx % n_ang
    layer = idx // n_ang
    theta = 2.0 * math.pi * (sector + 0.5 + 0.5 * (layer % 2)) / n_ang
    cx, cy = profile.center
    px = cx + qs * np.cos(theta)
    py = cy + qs * np.sin(theta)
    # Ring phase: half a ring sector (pi/8) past the atom's own radial
    # direction, so no sub-atom is radially or tangentially aligned with the
    # profile center (exact alignment degenerates the radial displacement to
    # second order and piles spurious mass onto single radii), plus a tiny
    # per-atom twist so sub-atoms of concentric atoms never coincide.
    twist = (math.pi / 32.0) * (idx + 0.5) / n
    phis = (theta + math.pi / 8.0 + twist)[:, None] \
        + 2.0 * math.pi * np.arange(BLOB_RING_POINTS)[None, :] / BLOB_RING_POINTS
    sx = (px[:, None] + blob_radius * np.cos(phis)).ravel()
    sy = (py[:, None] + blob_radius * np.sin(phis)).ravel()
    ws = np.repeat(_exact_total_weights(mass, n) / BLOB_RING_POINTS, BLOB_RING_POINTS)
    # Heuristic cell diameter: largest of the radial cell width, the angular
    # sector arc at the atom's radius, and the ring spacing.
    diam = np.maximum(np.diff(edges),
                      np.maximum(2.0 * math.pi * qs / n_ang,
                                 2.0 * math.pi * blob_radius / BLOB_RING_POINTS))
    prov = {
        "kind": PROV_BLOB,
        "n": n,
        "radius": blob_radius,
        "profile": profile,
    }
    return PlanarMeasure(np.column_stack((sx, sy)), ws, prov,
                         np.repeat(diam, BLOB_RING_POINTS))


def _pair_blocks(points: np.ndarray):
    """Row sub-blocks of the i < j pair walk, in two buffers reused throughout.

    Rows come in blocks [i0, i0 + _PAIR_CHUNK) whose columns are j >= i0.
    Each block is cut into sub-blocks of rows [s0, s1) with at most
    max(_BLOCK_ELEMENTS, n) entries, so memory stays bounded whatever n is.
    Yields (i0, s0, dx, dy) with the differences x_i - x_j for i in [s0, s1)
    and j >= i0; the caller may overwrite them, and they are valid until the
    next step.  The sums drop the j <= i entries.  The layout depends on n
    only.
    """
    n = len(points)
    x, y = points.T
    buf_x, buf_y = np.empty(max(_BLOCK_ELEMENTS, n)), np.empty(max(_BLOCK_ELEMENTS, n))
    for i0 in range(0, n, _PAIR_CHUNK):
        i1 = min(i0 + _PAIR_CHUNK, n)
        cols = n - i0
        step = max(1, _BLOCK_ELEMENTS // cols)
        for s0 in range(i0, i1, step):
            s1 = min(s0 + step, i1)
            shape = (s1 - s0, cols)
            dx = np.subtract(x[s0:s1, None], x[i0:], out=buf_x[:shape[0] * cols].reshape(shape))
            dy = np.subtract(y[s0:s1, None], y[i0:], out=buf_y[:shape[0] * cols].reshape(shape))
            yield i0, s0, dx, dy


def _row_sums(d: np.ndarray, weights: np.ndarray, i0: int, s0: int, out: np.ndarray) -> None:
    """out_i = sum of w_j k(d_ij) over a sub-block's j > i; overwrites d.

    k(0) = +inf: a zero pairwise distance means a genuine atom of the cloud,
    whose energy really is infinite, so the lower bracket may be +inf here
    (unlike the quadrature engines, which floor widths instead).
    """
    with np.errstate(divide="ignore"):
        ks = _kern_inplace(d)
    diag = s0 - i0
    np.copyto(ks[:, :diag + len(ks)], 0.0, where=np.tri(len(ks), diag + len(ks), diag, dtype=bool))
    np.einsum("ij,j->i", ks, weights[i0:], out=out)


def _block_sums(weights: np.ndarray, rows: np.ndarray) -> list:
    """sum_i w_i rows_i over each row block of _pair_blocks, in order."""
    return [float(np.einsum("i,i->", weights[i0:i0 + _PAIR_CHUNK], rows[i0:i0 + _PAIR_CHUNK]))
            for i0 in range(0, len(rows), _PAIR_CHUNK)]


def _pair_lower(points: np.ndarray, weights: np.ndarray) -> float:
    """Sum over i != j of w_i w_j k(|x_i - x_j|); +inf on coincident atoms.

    Each unordered pair is evaluated once, in the sub-blocks of _pair_blocks,
    with no BLAS call.  Clouds of equal length are thus summed in the same
    association order; combined with the monotonicity of IEEE addition this
    makes termwise-dominated clouds produce ordered sums exactly.
    """
    rows = np.empty(len(weights))
    for i0, s0, dx, dy in _pair_blocks(points):
        _row_sums(np.hypot(dx, dy, out=dx), weights, i0, s0, rows[s0:s0 + len(dx)])
    return 2.0 * sum(_block_sums(weights, rows))


def _walked_pair_lower(Q: PlanarMeasure) -> tuple:
    """_pair_lower of any cloud, and the n (n - 1) / 2 kernels it evaluates."""
    n = Q.n_atoms
    return _pair_lower(Q.points, Q.weights), n * (n - 1) // 2


def _circle_pair_lower(Q: PlanarMeasure) -> tuple:
    """_pair_lower of a circle_measure cloud, summed by rotation class.

    circle_measure(n) is invariant under rotation by 2 pi / n, so the ordered
    pairs (i, i + d mod n) of class d all lie |x_0 - x_d| apart.  Of a
    class's n pairs, n - 2 weigh w_0^2 and two involve the adjusted last
    weight of _exact_total_weights, so every class weighs
    C = (n - 2) w_0^2 + 2 w_0 w_last and the sum is
    C * sum_{d=1}^{n-1} k(|x_0 - x_d|).  In real arithmetic that is the
    walk's sum; in floating point the atoms are symmetric only up to
    rounding, so the two agree to within n eps relative.  Returns the sum
    and the n - 1 kernels it evaluates.
    """
    n = Q.n_atoms
    w0, w_last = float(Q.weights[0]), float(Q.weights[-1])
    assert bool(np.all(Q.weights[:-1] == w0)), "rotation classes need n - 1 equal weights"
    x, y = Q.points.T
    with np.errstate(divide="ignore"):
        ks = _kern_inplace(np.hypot(x[0] - x[1:], y[0] - y[1:]))
    return ((n - 2) * w0 * w0 + 2.0 * w0 * w_last) * float(np.sum(ks)), n - 1


def _surcharge(weights: np.ndarray, diam: np.ndarray | None) -> float:
    """Self-interaction surcharge sum of w_i^2 k(diam_i); +inf if unknown."""
    if diam is None:
        return math.inf
    with np.errstate(divide="ignore"):
        return float(np.sum(weights**2 * _kern_inplace(diam.copy())))


def _family_schedule(kind: str) -> tuple:
    per_atom = BLOB_RING_POINTS if kind == PROV_BLOB else 1
    return tuple(n for n in FAMILY_SCHEDULE if n * per_atom <= _MAX_ATOMS)


# Per refinable kind: the builder of the cloud at refinement level n from its
# provenance, and the pair sum of such a cloud (with its kernel count).
_REFINE = {
    PROV_CIRCLE: (lambda P, n: circle_measure(n), _circle_pair_lower),
    PROV_BLOB: (lambda P, n: blob_approximation(P.provenance["profile"], n,
                                                P.provenance["radius"]),
                _walked_pair_lower),
}


def energy_planar(P: PlanarMeasure) -> EnergyEstimate:
    """Bracketed planar log-energy, dispatched on the cloud's provenance.

    A line cloud returns the double engine's estimate for its CDF at a
    bracket width of half FAMILY_TOL.  A point mass is Divergent at once
    (lower bracket 0, the pair sum of one atom).  Circle and blob clouds are
    judged over a refinement family: the i != j pairwise sum is the lower
    bracket at each level, and the upper bracket adds the per-atom
    surcharge.  Circle levels are summed by rotation class (n - 1 kernels
    per level, _circle_pair_lower); every other cloud goes through the
    sub-block walk of _pair_lower.  The whole refinement schedule is always
    run, and FiniteConverged requires the final two levels to agree within
    half of FAMILY_TOL with a final surcharge that small as well (half per
    component keeps the combined uncertainty within FAMILY_TOL).  A +inf
    lower bracket (coincident atoms) is a divergence certificate at any
    level.  Clouds without a refinable provenance are judged on the single
    cloud and can never certify finiteness (Inconclusive at best).

    work holds one (atoms, kernel evaluations, atom pairs represented)
    triple per trace row: n - 1 kernels stand for n (n - 1) / 2 pairs on a
    circle level, and a walked level evaluates each pair once.  A line
    cloud keeps the double engine's work record.
    """
    if P.n_atoms == 0:
        raise EmptyMeasure("planar energy needs at least one atom")
    kind = P.provenance.get("kind")
    if kind == PROV_LINE:
        return energy_double_stieltjes(P.provenance["cdf"], _LINE_CONFIG)
    if kind == PROV_DIRAC:
        return EnergyEstimate(math.inf, 0.0, math.inf, VERDICT_DIVERGENT,
                              ((1, 0.0, math.inf),), STOP_ATOM, UPPER_HEURISTIC, ((1, 0, 0),))
    if kind in _REFINE:
        build, pair_sum = _REFINE[kind]
        clouds = (build(P, n) for n in _family_schedule(kind))
    else:
        clouds, pair_sum = (P,), _walked_pair_lower
    trace = []
    work = []
    prev = None
    drift = math.inf
    lower = 0.0
    sur = math.inf
    upper = math.inf
    for Q in clouds:
        lower, evals = pair_sum(Q)
        sur = _surcharge(Q.weights, Q.cell_diameters)
        upper = lower + sur
        trace.append((Q.n_atoms, lower, upper))
        work.append((Q.n_atoms, evals, Q.n_atoms * (Q.n_atoms - 1) // 2))
        if math.isinf(lower):
            return EnergyEstimate(math.inf, math.inf, math.inf, VERDICT_DIVERGENT,
                                  tuple(trace), STOP_ATOM, UPPER_HEURISTIC, tuple(work))
        if prev is not None:
            drift = abs(lower - prev)
        prev = lower
    scale = max(1.0, abs(lower))
    if drift <= 0.5 * FAMILY_TOL * scale and sur <= 0.5 * FAMILY_TOL * scale:
        return EnergyEstimate(lower + 0.5 * sur, lower, upper, VERDICT_FINITE,
                              tuple(trace), STOP_AGREEMENT, UPPER_HEURISTIC, tuple(work))
    value = lower + 0.5 * sur if math.isfinite(upper) else lower
    return EnergyEstimate(value, lower, upper, VERDICT_INCONCLUSIVE, tuple(trace),
                          STOP_SCHEDULE, UPPER_HEURISTIC, tuple(work))


def _radial_distances(P: PlanarMeasure, x0) -> np.ndarray:
    """Per-atom distances to x0 with fp-noise radii snapped together.

    Distances within _RADIUS_SNAP_RTOL (relative) of each other are collapsed
    onto the smallest member of their run, so mathematically equal radii that
    differ by an ulp of hypot noise compare equal downstream.
    """
    r = np.hypot(P.points[:, 0] - float(x0[0]), P.points[:, 1] - float(x0[1]))
    order = np.argsort(r, kind="stable")
    rs = r[order]
    new_group = np.empty(rs.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (rs[1:] - rs[:-1]) > _RADIUS_SNAP_RTOL * rs[1:]
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, rs.size))
    snapped_sorted = np.repeat(rs[starts], counts)
    out = np.empty_like(r)
    out[order] = snapped_sorted
    return out


def _merged_radii(P: PlanarMeasure, r: np.ndarray) -> tuple:
    """(radii, merged weights, cumulative weights) at distances r, exact-tie merged."""
    rs, inv = np.unique(r, return_inverse=True)
    wm = np.bincount(inv, weights=P.weights)
    cum = np.cumsum(wm)
    if cum.size:
        cum[-1] = max(float(cum[-2]) if cum.size > 1 else 0.0, P.total_mass)
    return rs, wm, cum


def radial_cdf(P: PlanarMeasure, x0) -> RadialProfile:
    """Radial profile G(r) = mass of the closed ball of radius r about x0."""
    if P.n_atoms == 0:
        raise EmptyMeasure("radial profile needs at least one atom")
    rs, _, cum = _merged_radii(P, _radial_distances(P, x0))
    return RadialProfile((float(x0[0]), float(x0[1])), table_cdf(rs, cum))


_PUSHFORWARD_FUNS = {
    "r^2": lambda r: r * r,
    "min(r,1)": lambda r: np.minimum(r, 1.0),
    "1": lambda r: np.ones_like(r),
}
_PUSHFORWARD_ALIASES = {"r2": "r^2", "min": "min(r,1)", "minr1": "min(r,1)", "one": "1"}


def radial_pushforward_check(P: PlanarMeasure, x0, h: str) -> dict:
    """Check sum_i w_i h(|x_i - x0|) against the Stieltjes integral of h dG.

    Both sides are the same finite sum reorganized (per atom vs per merged
    radius), so the relative gap must sit at accumulation-noise level.
    """
    if P.n_atoms == 0:
        raise EmptyMeasure("pushforward check needs at least one atom")
    tag = _PUSHFORWARD_ALIASES.get(str(h).lower().replace(" ", ""), str(h))
    if tag not in _PUSHFORWARD_FUNS:
        raise BadParams(f"test function must be one of {sorted(_PUSHFORWARD_FUNS)}, got {h!r}")
    fun = _PUSHFORWARD_FUNS[tag]
    r = _radial_distances(P, x0)
    lhs = _fsum(*(P.weights * fun(r)).tolist())
    rs, wm, _ = _merged_radii(P, r)
    rhs = _fsum(*(wm * fun(rs)).tolist())
    gap = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return {"h": tag, "lhs": lhs, "rhs": rhs, "gap": gap}


def radial_inequality_check(P: PlanarMeasure, x0) -> dict:
    """Discrete radial-reduction inequality about x0.

    holds_pointwise asserts k(|x_i - x_j|) <= k(||x_i| - |x_j||) (distances
    taken after centering at x0) on every atom pair, with k(0) = +inf; the
    lower brackets of the cloud and of its radial projection onto the
    half-line must then satisfy lhs_lower <= rhs_lower exactly.

    In real arithmetic the pointwise claim is the reverse triangle
    inequality, so it can never genuinely fail; the comparison therefore
    allows the projected gap to exceed the planar distance by a few ulps
    of the radii, which is the rounding floor of computing the radii
    themselves.  Without that allowance, nearly colinear atom pairs flip
    the comparison by one ulp and report a spurious failure.

    The projection uses the raw floating-point distances (no snapping):
    only bitwise-equal radii collapse, so genuinely coincident projections
    (exact symmetry, duplicated atoms) register as k(0) = +inf while radii
    separated by rounding noise stay distinct and keep the bracket finite.

    One pass over the pair sub-blocks of _pair_lower makes the check and both
    sums.
    """
    if P.n_atoms == 0:
        raise EmptyMeasure("radial inequality check needs at least one atom")
    r = np.hypot(P.points[:, 0] - float(x0[0]), P.points[:, 1] - float(x0[1]))
    holds = True
    lhs = rhs = 0.0
    # Distance domination |r_i - r_j| <= |x_i - x_j| implies the kernel
    # claim because the kernel is nonincreasing, so compare distances: on
    # the log scale a one-ulp distance flip near zero would look like a
    # large kernel violation.  The comparison is symmetric in i and j, so
    # the j <= i entries of a block repeat pairs already checked.
    slack = 4.0 * np.finfo(float).eps
    rows_xy, rows_r = np.empty(P.n_atoms), np.empty(P.n_atoms)
    for i0, s0, dx, dy in _pair_blocks(P.points):
        s1 = s0 + len(dx)
        s_xy = np.hypot(dx, dy, out=dx)
        r_rows, r_cols = r[s0:s1, None], r[None, i0:]
        s_r = np.abs(np.subtract(r_rows, r_cols, out=dy), out=dy)
        holds = holds and bool(np.all(s_r <= s_xy + slack * (r_rows + r_cols)))
        _row_sums(s_xy, P.weights, i0, s0, rows_xy[s0:s1])
        _row_sums(s_r, P.weights, i0, s0, rows_r[s0:s1])
    for block_xy, block_r in zip(_block_sums(P.weights, rows_xy), _block_sums(P.weights, rows_r)):
        lhs += block_xy
        rhs += block_r
    return {"lhs_lower": 2.0 * lhs, "rhs_lower": 2.0 * rhs, "holds_pointwise": holds}


def _near_range(centers: np.ndarray, c: float, reach: float) -> slice:
    """The cell centers within reach of c, as a slice of the sorted centers."""
    d = centers - c
    return slice(int(np.searchsorted(d, -reach, "left")),
                 int(np.searchsorted(d, reach, "right")))


def _direct_sweep(points: np.ndarray, ws: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray, sep_floor: float, out: np.ndarray) -> None:
    """out[j, i] = sum_k ws_k (g - x_k)^perp / |g - x_k|^2 at g = (xs[i], ys[j]).

    Swept in cache-sized blocks of whole rows.  Raises AtomOnGrid when an
    atom lies within sep_floor of a sample.
    """
    if out.size == 0:
        return
    dx = xs[:, None] - points[None, :, 0]
    dx2 = dx * dx
    # Rounding is monotone, so min over x of (dx^2 + ndy^2) is exactly this
    # per-atom minimum plus ndy^2: the check needs no pass over a block.
    dx2_min = dx2.min(axis=0)
    rows_per = max(1, _BLOCK_ELEMENTS // (len(xs) * len(ws)))
    for j0 in range(0, len(ys), rows_per):
        j1 = min(j0 + rows_per, len(ys))
        ndy = points[None, :, 1] - ys[j0:j1, None]  # -(y - y_i)
        ndy2 = ndy * ndy
        if float(np.min(dx2_min + ndy2)) < sep_floor * sep_floor:
            raise AtomOnGrid(
                f"an atom sits within {sep_floor:.3e} of a velocity sample"
            )
        d2 = dx2 + ndy2[:, None, :]
        scaled = np.divide(ws, d2, out=d2)
        out[j0:j1, :, 0] = np.einsum("rxn,rn->rx", scaled, ndy)
        out[j0:j1, :, 1] = np.einsum("rxn,xn->rx", scaled, dx)


def _multipole_sweep(coeffs: np.ndarray, z0: complex, rho: float, xs: np.ndarray,
                     ys: np.ndarray, out: np.ndarray) -> None:
    """out[j, i] = the expansion sum_p coeffs_p rho^p / (g - z0)^(p+1), by Horner."""
    if out.size == 0:
        return
    inv = 1.0 / ((xs[None, :] - z0.real) + 1j * (ys[:, None] - z0.imag))
    t = rho * inv
    acc = np.full(inv.shape, coeffs[-1])
    for a in coeffs[-2::-1]:
        acc *= t
        acc += a
    acc *= inv
    out[..., 0] = acc.imag
    out[..., 1] = acc.real


def biot_savart(P: PlanarMeasure, grid: GridSpec) -> VelocityField:
    """u(g) = sum_k w_k (g - x_k)^perp / (2 pi |g - x_k|^2) on cell centers.

    With z0 the center of the atoms' bounding box and rho = max |z_k - z0|,
    the complex velocity u_y + i u_x = sum_k w_k / (2 pi (z - z_k)) equals
    sum_p a_p / (z - z0)^(p+1), a_p = sum_k (w_k / 2 pi) (z_k - z0)^p.  Cells
    in the square |x - x0|, |y - y0| <= 3 rho + sep_floor get the direct
    sum, swept in cache-sized row blocks; every other cell has
    q = rho / |z - z0| < 1/3 and gets the expansion truncated at order P,
    whose error relative to sum_k w_k / (2 pi |z - z_k|) is at most
    q^(P+1) (1 + q) / (1 - q) <= 2 * 3^-(P+1).  P is 34 (a bound of 4e-17),
    or 0 when all atoms coincide (rho = 0, where the order-0 term is exact).
    An atom within sep_floor of a sample (AtomOnGrid) always lies in the
    square.  No BLAS call is made.
    """
    if P.n_atoms == 0:
        raise EmptyMeasure("velocity field needs at least one atom")
    xs, ys = grid.centers()
    sep_floor = 1e-12 * min(grid.hx, grid.hy)
    x0, y0 = 0.5 * (P.points.min(axis=0) + P.points.max(axis=0))
    rho = float(np.max(np.hypot(P.points[:, 0] - x0, P.points[:, 1] - y0)))
    reach = 3.0 * rho + sep_floor
    rows, cols = _near_range(ys, y0, reach), _near_range(xs, x0, reach)
    ws = P.weights / (2.0 * math.pi)
    values = np.empty((grid.ny, grid.nx, 2), dtype=float)
    _direct_sweep(P.points, ws, xs[cols], ys[rows], sep_floor, values[rows, cols])
    order = _EXPANSION_ORDER if rho > 0.0 else 0
    # Coefficients scaled by rho^-p, so no power of rho over- or underflows.
    zk = ((P.points[:, 0] - x0) + 1j * (P.points[:, 1] - y0)) / (rho or 1.0)
    term = ws.astype(complex)
    coeffs = np.empty(order + 1, dtype=complex)
    for p in range(order + 1):
        coeffs[p] = np.sum(term)
        term *= zk
    everything = slice(None)
    for r, c in ((slice(None, rows.start), everything), (slice(rows.stop, None), everything),
                 (rows, slice(None, cols.start)), (rows, slice(cols.stop, None))):
        _multipole_sweep(coeffs, complex(x0, y0), rho, xs[c], ys[r], values[r, c])
    direct = (rows.stop - rows.start) * (cols.stop - cols.start)
    return VelocityField(xs, ys, values, grid.hx, grid.hy, direct_cells=direct,
                         expansion_cells=grid.nx * grid.ny - direct, expansion_order=order)


def local_kinetic_energy(field: VelocityField, center, r_out: float,
                         r_in: float = 0.0) -> float:
    """Midpoint-rule integral of |u|^2 over the disk/annulus about center."""
    if not (0.0 <= r_in < r_out) or not math.isfinite(r_out):
        raise BadParams(f"need 0 <= r_in < r_out finite, got [{r_in}, {r_out}]")
    cx, cy = float(center[0]), float(center[1])
    lo_x = field.xs[0] - 0.5 * field.hx
    hi_x = field.xs[-1] + 0.5 * field.hx
    lo_y = field.ys[0] - 0.5 * field.hy
    hi_y = field.ys[-1] + 0.5 * field.hy
    if cx - r_out < lo_x or cx + r_out > hi_x or cy - r_out < lo_y or cy + r_out > hi_y:
        raise RegionOutsideGrid(
            f"region of radius {r_out} about ({cx}, {cy}) leaves the grid hull"
        )
    rr = np.hypot(field.xs[None, :] - cx, field.ys[:, None] - cy)
    mask = (rr >= r_in) & (rr <= r_out)
    speed2 = field.values[:, :, 0] ** 2 + field.values[:, :, 1] ** 2
    return float(np.sum(np.where(mask, speed2, 0.0))) * field.hx * field.hy
