"""The benchmark's workloads: inputs built from a seed, a fixed list of
operations on them, and a check for every output.

Each workload class builds its inputs in ``__init__`` (this is the set-up
that ``setup_s`` times) and returns its operations from ``ops``.  An
operation is run, timed and then checked; a check returns the list of
problems it found, and an operation with a problem counts as failed.
``ops`` takes a ``wrap`` function that the traced mode uses to instrument
the line measures the benchmark built itself.

The seed only moves parameters inside ranges on which the program does the
same work: the same refinement ladders, partition sizes, grids and rules.
So ``round_s`` does not change with the seed, and every operation passes
except the one marked as a known fault.
"""
from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import io
import json
import math
import os

import numpy as np

import oracles

# QuadratureConfig().agreement_tol and planar.FAMILY_TOL when the benchmark
# was written.  They are copied, not read from the program, so that a
# change to the program's defaults cannot loosen the checks.
AGREEMENT_TOL = 1e-3
FAMILY_TOL = 0.02
# Midpoint-rule kinetic energy over an annulus on the vortex grids.
KE_REL_TOL = 0.01
# Vortex speeds against 1/(2 pi r): exact for one atom, and for the blob
# outside three blob radii.
VORTEX_SPEED_REL_TOL = 1e-9
BLOB_SPEED_REL_TOL = 1e-4
# Exact sums in log space against the closed-form step-density energy.
DENSITY_REL_TOL = 1e-9
# Interval endpoints from the program against the digit construction.
ENDPOINT_ABS_TOL = 1e-12

FINITE = "FiniteConverged"
DIVERGENT = "Divergent"
MEMBER = "MemberCertified"
DIVERGES = "DivergenceCertified"

# known_fault names a fault of the program that makes the operation fail on
# every run; its failures are counted but do not make the run incorrect.
Op = collections.namedtuple("Op", "name run check known_fault", defaults=(None,))


@functools.lru_cache(maxsize=None)
def cantor_energy(K: float) -> float:
    return oracles.cantor_energy(K)


def dilate(F, L: float):
    """The measure F pushed forward by x -> L x (same kind and mass)."""
    ev, q = F.evaluator, F.quantile
    return dataclasses.replace(
        F, support_lo=F.support_lo * L, support_hi=F.support_hi * L,
        evaluator=lambda x: ev(np.asarray(x, dtype=float) / L),
        quantile=None if q is None else (lambda m: np.asarray(q(m), dtype=float) * L),
        params={**F.params, "dilated_by": L})


# ----------------------------------------------------------------------
# Checks.  Pure functions of an output and its reference, so the
# self-tests can feed them perturbed outputs.


def check_line_solve(est, exact: float, double: bool) -> list:
    """Certified line energy: converged, within tolerance of the exact value
    and, for the double engine, a rigorous and monotone lower bound."""
    problems = []
    if est.verdict != FINITE:
        problems.append(f"verdict {est.verdict}")
    if not abs(est.value - exact) <= AGREEMENT_TOL * max(1.0, exact):
        problems.append(f"value {est.value!r} vs exact {exact!r}")
    if double:
        if not est.lower <= exact:
            problems.append(f"lower {est.lower!r} above exact {exact!r}")
        lowers = [t[1] for t in est.trace]
        if any(b < a for a, b in zip(lowers, lowers[1:])):
            problems.append("lower bound decreases along the trace")
    return problems


def check_classification(report: dict, expected: str, cantor_K=None) -> list:
    """A classify.json report: the known verdict, and a Cantor-K energy
    bound that is not below the self-similarity energy."""
    got = report["classification"]
    problems = []
    if got["verdict"] != expected:
        problems.append(f"verdict {got['verdict']} ({got['rule']}), expected {expected}")
    bound = got["witness"].get("energy_bound")
    if cantor_K is not None and bound is not None and not bound >= cantor_energy(cantor_K):
        problems.append(f"energy_bound {bound!r} below the energy {cantor_energy(cantor_K)!r}")
    return problems


def check_density_energy(report: dict, expected: str, exact=None) -> list:
    """An energy.json report of the step-density engine."""
    est = report["estimate"]
    problems = []
    if est["verdict"] != expected:
        problems.append(f"verdict {est['verdict']}, expected {expected}")
    value = float(est["value"])  # non-finite values are written as strings
    if exact is not None and not abs(value - exact) <= DENSITY_REL_TOL * max(1.0, exact):
        problems.append(f"value {value!r} vs exact {exact!r}")
    return problems


def check_intervals(report: dict, table: np.ndarray, K: float, level: int) -> list:
    """cantor.json and the rows (level, index, lo, width_log) of
    intervals.csv against the digit-by-digit construction."""
    problems = []
    if report["count"] != 2**level or table.shape[0] != 2**level:
        problems.append(f"{table.shape[0]} rows, count {report['count']}, expected {2**level}")
        return problems
    if not np.array_equal(table[:, 1], np.arange(2**level)):
        problems.append("interval indices out of order")
    width_log = -level * math.log(K)
    if not np.all(np.abs(table[:, 3] - width_log) <= ENDPOINT_ABS_TOL * level):
        problems.append("width_log differs from -level ln K")
    err = float(np.max(np.abs(table[:, 2] - oracles.cantor_addresses([1.0 / K] * level))))
    if not err <= ENDPOINT_ABS_TOL:
        problems.append(f"left endpoints off by {err!r}")
    return problems


def check_planar_energy(est, exact: float) -> list:
    # The value, not containment in [lower, upper]: the family brackets of
    # energy_planar can exclude the true energy (see CHANGES.md).
    problems = []
    if est.verdict != FINITE:
        problems.append(f"verdict {est.verdict}")
    if not abs(est.value - exact) <= FAMILY_TOL * max(1.0, exact):
        problems.append(f"value {est.value!r} vs exact {exact!r}")
    return problems


def arcsin_sup_error(xs, fs) -> float:
    """Exact sup over r of |G(r) - (2/pi) arcsin(r/2)| for the step profile
    G jumping to fs[k] at xs[k]: attained at a jump, from either side."""
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    ref = oracles.arcsin_profile(xs)
    left = np.concatenate(([0.0], fs[:-1]))
    return float(max(np.max(np.abs(fs - ref)), np.max(np.abs(left - ref)),
                     abs(fs[-1] - 1.0)))


def check_radial(profile, n: int) -> list:
    err = arcsin_sup_error(profile.G.params["xs"], profile.G.params["fs"])
    return [] if err <= 2.0 / n else [f"arcsin sup error {err!r} above 2/{n}"]


def check_inequality(res: dict) -> list:
    lhs, rhs = res["lhs_lower"], res["rhs_lower"]
    ok = res["holds_pointwise"] and math.isfinite(rhs) and lhs <= rhs
    return [] if ok else [f"radial inequality fails: {res!r}"]


def check_vortex_field(field, center, r_min: float, rel_tol: float) -> list:
    """Speeds at cells at least r_min from the center against 1/(2 pi r)."""
    r = np.hypot(field.xs[None, :] - center[0], field.ys[:, None] - center[1])
    speed = np.hypot(field.values[:, :, 0], field.values[:, :, 1])
    far = r >= r_min
    err = float(np.max(np.abs(speed[far] / oracles.vortex_speed(r[far]) - 1.0)))
    return [] if err <= rel_tol else [f"speed off by {err:.3g} (relative)"]


def check_annulus(ke: float, r_in: float, r_out: float) -> list:
    exact = oracles.annulus_energy(r_in, r_out)
    err = abs(ke - exact) / exact
    return [] if err <= KE_REL_TOL else [f"annulus energy {ke!r} vs {exact!r}"]


# ----------------------------------------------------------------------
# line-certify


class LineCertify:
    """Both line engines to FiniteConverged on three certified energies.

    The seed places each measure, sets its length in [0.95, 1] and its mass
    in [0.9, 1.1].  Over these ranges each solve stops at the same ladder
    level for every seed (so round_s does not move with the seed), and the
    energies stay above 1, where the agreement tolerance is relative.
    """

    name = "line-certify"

    def __init__(self, lm, seed: int, workdir: str):
        self.lm = lm
        rng = np.random.default_rng(seed)
        L, m, t = rng.uniform(0.95, 1.0, 3), rng.uniform(0.9, 1.1, 3), rng.uniform(-2.0, 2.0, 3)
        self.inputs = [
            ("uniform", lm.uniform_cdf(t[0], t[0] + L[0], m[0]),
             functools.partial(oracles.uniform_energy, L[0], m[0])),
            ("power-half",
             lm.translate_cdf(lm.power_law_cdf(m[1] / math.sqrt(L[1]), 0.5, L[1]), t[1]),
             functools.partial(oracles.power_half_energy, L[1], m[1])),
            ("cantor-3",
             lm.translate_cdf(lm.scale_cdf(
                 dilate(lm.cantor_cdf(lm.standard_cantor_spec(3.0)), L[2]), m[2]), t[2]),
             lambda: oracles.dilated_energy(cantor_energy(3.0), L[2], m[2])),
        ]

    def ops(self, wrap=lambda F: F):
        lm = self.lm
        out = []
        for label, F, exact in self.inputs:
            F = wrap(F)
            out.append(Op(f"double:{label}", lambda F=F: lm.energy_double_stieltjes(F),
                          lambda est, exact=exact: check_line_solve(est, exact(), True)))
            out.append(Op(f"one-sided:{label}", lambda F=F: lm.energy_one_sided(F),
                          lambda est, exact=exact: check_line_solve(est, exact(), False)))
        return out


# ----------------------------------------------------------------------
# classify-cli


def _cli(lm, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return lm.cli.main(argv)


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: str, columns: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        text = fh.read()
    return np.fromstring(text.replace("\n", ","), sep=",").reshape(-1, columns)


class ClassifyCli:
    """``logmeasure classify``, ``energy --engine density`` and ``cantor``
    through ``cli.main``, on measure documents written at set-up.

    The batch has a fixed make-up; the seed draws the parameters.  Known
    memberships: every continuous law here has finite energy (the thin
    general-ratio carriers of dimension 0 included); atoms and the L^1
    staircase do not.
    """

    name = "classify-cli"
    CANTOR_LEVELS = (16, 17, 18)
    # Cantor-K ratios that the Holder gate certifies.  The gate's
    # out-of-sample check rejects K in bands scattered over [2.5, 7] (for
    # example 3.73-3.86, 5.19-5.27 and 5.95-6.06); those fall through to the
    # double engine and take about 23 s instead of 0.05 s (see CHANGES.md).
    HOLDER_KS = (2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.5, 7.0)
    # A finite density the step-density engine calls Divergent: with four or
    # more blocks its series growth test fires on any finite block list
    # whose second half carries 2% of the diagonal sum.  Fixed, so the
    # operation fails on every run and on nothing else.
    FOUR_BLOCKS = ((0.0, 0.1, 2.0), (0.2, 0.1, 2.0), (0.4, 0.1, 2.0), (0.6, 0.1, 2.0))
    FOUR_BLOCK_FAULT = "energy_density: series growth test on a finite block list"

    def __init__(self, lm, seed: int, workdir: str):
        self.lm = lm
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.docs = []        # (name, path, expected verdict, Cantor K or None)
        self.densities = []   # (name, path, expected verdict, exact energy or None)
        for i in range(2):
            lo, L, m = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)
            self._doc(f"uniform{i}", {"kind": "uniform",
                                      "params": {"lo": lo, "hi": lo + L, "mass": m}}, MEMBER)
        for i in range(3):
            self._doc(f"power{i}", {"kind": "power_law", "params": {
                "c": rng.uniform(0.5, 2.0), "alpha": rng.uniform(0.2, 0.9),
                "R": rng.uniform(0.3, 1.0)}}, MEMBER)
        for i in range(3):
            K = float(rng.choice(self.HOLDER_KS))
            self._doc(f"cantorK{i}", {"kind": "cantor", "family": "standardK",
                                      "K": K, "depth": 30}, MEMBER, K)
        for beta in (1.5, 2.0, 3.0):
            self._doc(f"general{beta:g}", {"kind": "cantor", "family": "general",
                                           "beta": beta, "depth": 30}, MEMBER)
        steps = [(f"step{i}", self._step_blocks(rng), None) for i in range(2)]
        steps.append(("step-four", self.FOUR_BLOCKS, self.FOUR_BLOCK_FAULT))
        for name, blocks, fault in steps:
            doc = {"kind": "step_density", "params": {"blocks": [
                {"a": a, "log_d": math.log(d), "log_h": math.log(h)} for a, d, h in blocks]}}
            path = self._doc(name, doc, MEMBER)
            self.densities.append((name, path, FINITE, oracles.step_density_energy(blocks), fault))
        n_blocks = int(rng.integers(30, 51))
        stair = {"kind": "step_density", "params": {"blocks": [
            {"a": 2.0 * n, "log_d": -float(4**n), "log_h": float(4**n),
             "log_h_lo": -n * math.log(2.0)} for n in range(1, n_blocks + 1)]}}
        path = self._doc("staircase", stair, DIVERGES)
        self.densities.append(("staircase", path, DIVERGENT, None, None))
        # One atom each: tables with several atoms at generic positions are
        # certified members on about half of the seeds (see CHANGES.md).
        for i in range(2):
            self._doc(f"table{i}", {"kind": "table", "params": {"points": [
                [rng.uniform(-1.0, 1.0), rng.uniform(0.1, 2.0)]]}}, DIVERGES)
        self.cantor_K = float(rng.uniform(2.5, 7.0))
        self.cantor_path = self._write("cantor_config", {
            "kind": "cantor", "family": "standardK", "K": self.cantor_K, "depth": 30})

    @staticmethod
    def _step_blocks(rng, k=3):
        """k disjoint blocks of height >= 1 and width <= 1 inside one unit
        interval, so the closed form sees every pair."""
        d = rng.uniform(0.03, 0.15, k)
        gaps = rng.uniform(0.02, 0.1, k)
        a = rng.uniform(-1.0, 1.0) + np.cumsum(gaps) + np.concatenate(([0.0], np.cumsum(d)[:-1]))
        h = rng.uniform(1.0, 5.0, k)
        return [(float(a[i]), float(d[i]), float(h[i])) for i in range(k)]

    def _write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _doc(self, name, doc, expected, K=None) -> str:
        path = self._write(name, doc)
        self.docs.append((name, path, expected, K))
        return path

    def _op(self, name, argv, check, known_fault=None):
        lm, out_dir = self.lm, os.path.join(self.workdir, "out", name)
        argv = argv + ["--out-dir", out_dir]

        def run():
            code = _cli(lm, argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return out_dir

        return Op(name, run, check, known_fault)

    def ops(self, wrap=lambda F: F):
        out = []
        for name, path, expected, K in self.docs:
            out.append(self._op(
                f"classify:{name}", ["classify", "--measure", path],
                lambda d, e=expected, K=K: check_classification(
                    _read_json(os.path.join(d, "classify.json")), e, K)))
        for name, path, expected, exact, fault in self.densities:
            out.append(self._op(
                f"energy-density:{name}", ["energy", "--engine", "density", "--measure", path],
                lambda d, e=expected, x=exact: check_density_energy(
                    _read_json(os.path.join(d, "energy.json")), e, x), fault))
        for level in self.CANTOR_LEVELS:
            out.append(self._op(
                f"cantor:{level}",
                ["cantor", "--config", self.cantor_path, "--depth", str(level)],
                lambda d, level=level: check_intervals(
                    _read_json(os.path.join(d, "cantor.json")),
                    _read_csv(os.path.join(d, "intervals.csv"), 4), self.cantor_K, level)))
        return out


# ----------------------------------------------------------------------
# planar-vortex


class PlanarVortex:
    """Planar pair sums, radial projection and Biot-Savart, no line engine.

    The seed sets the line measures' position, length and mass, the point
    on the circle that the radial profiles are taken about, the vortex
    position and the blob radius.  Grid sizes, atom counts and refinement
    schedules are fixed, so the work is the same for every seed.
    """

    name = "planar-vortex"
    RADIAL_NS = (64, 256, 1024)
    VORTEX_GRID = 440
    BLOB_GRIDS = (320, 400)
    BLOB_ATOMS = 64
    R_OUT = 1.0
    R_IN = 0.1

    def __init__(self, lm, seed: int, workdir: str):
        self.lm = lm
        rng = np.random.default_rng(seed)
        lo, L, m = rng.uniform(-2.0, 2.0, 2), rng.uniform(0.5, 1.0, 2), rng.uniform(0.8, 1.2, 2)
        self.lines = [
            ("uniform", lm.uniform_cdf(lo[0], lo[0] + L[0], m[0]),
             functools.partial(oracles.uniform_energy, L[0], m[0])),
            ("cantor-3", lm.translate_cdf(lm.scale_cdf(
                dilate(lm.cantor_cdf(lm.standard_cantor_spec(3.0)), L[1]), m[1]), lo[1]),
             lambda: oracles.dilated_energy(cantor_energy(3.0), L[1], m[1])),
        ]
        self.circle = lm.circle_measure(64)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        self.x0 = (math.cos(theta), math.sin(theta))
        self.circles = [lm.circle_measure(n) for n in self.RADIAL_NS]
        self.center = tuple(float(v) for v in rng.uniform(-0.05, 0.05, 2))
        self.vortex = lm.dirac_at(self.center)
        self.blob_radius = float(rng.uniform(0.05, 0.1))
        self.blob = lm.blob_approximation(lm.radial_cdf(self.vortex, self.center),
                                          self.BLOB_ATOMS, self.blob_radius)
        self.grids = {ng: lm.GridSpec(-1.1, -1.1, 1.1, 1.1, ng, ng)
                      for ng in (self.VORTEX_GRID,) + self.BLOB_GRIDS}

    def ops(self, wrap=lambda F: F):
        lm = self.lm
        out = [Op("planar-energy:circle", lambda: lm.energy_planar(self.circle),
                  lambda est: check_planar_energy(est, oracles.circle_energy()))]
        for label, F, exact in self.lines:
            P = lm.line_measure(wrap(F), 64)
            out.append(Op(f"planar-energy:{label}", lambda P=P: lm.energy_planar(P),
                          lambda est, exact=exact: check_planar_energy(est, exact())))
        for n, P in zip(self.RADIAL_NS, self.circles):
            out.append(Op(f"radial-cdf:{n}", lambda P=P: lm.radial_cdf(P, self.x0),
                          lambda prof, n=n: check_radial(prof, n)))
        for n, P in zip(self.RADIAL_NS, self.circles):
            out.append(Op(f"radial-inequality:{n}",
                          lambda P=P: lm.radial_inequality_check(P, self.x0),
                          check_inequality))
        cases = [("vortex", self.vortex, self.VORTEX_GRID, self.R_IN, 0.0, VORTEX_SPEED_REL_TOL)]
        cases += [("blob", self.blob, ng, 3.0 * self.blob_radius, 3.0 * self.blob_radius,
                   BLOB_SPEED_REL_TOL) for ng in self.BLOB_GRIDS]
        for label, P, ng, r_in, r_min, speed_tol in cases:
            fields = {}

            def field(P=P, grid=self.grids[ng], fields=fields):
                fields["u"] = lm.biot_savart(P, grid)
                return fields["u"]

            out.append(Op(f"biot-savart:{label}:{ng}", field,
                          lambda u, r_min=r_min, tol=speed_tol:
                          check_vortex_field(u, self.center, r_min, tol)))
            out.append(Op(f"kinetic:{label}:{ng}",
                          lambda fields=fields, r_in=r_in:
                          lm.local_kinetic_energy(fields["u"], self.center, self.R_OUT, r_in),
                          lambda ke, r_in=r_in: check_annulus(ke, r_in, self.R_OUT)))
        return out


WORKLOADS = {cls.name: cls for cls in (LineCertify, ClassifyCli, PlanarVortex)}
