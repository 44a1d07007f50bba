"""Command-line interface: every computation as a subcommand.

Subcommands
-----------
energy     estimate the positive log-energy of a measure file
classify   run the membership classifier on a measure file
cantor     materialize construction intervals of a singular family
radial     distance profile, pushforward identities, projection inequality
velocity   induced velocity field on a grid plus local kinetic energy
dimension  box-counting dimension table for a singular family
repro      run one canned named experiment end to end

Common flags: ``--measure`` (input measure JSON), ``--config`` (JSON
override file) and ``--out-dir`` (where reports land).  ``energy`` (which
also takes ``--engine``: ``double | one-sided | density | planar``) and
``classify`` take ``--depth`` and ``--tol`` (engine ladder depth /
agreement tolerance); ``cantor`` and ``dimension`` take ``--depth`` (the
construction level); ``repro`` takes only ``--out-dir``.  Outputs are
deterministic:
JSON reports with fixed field order and 17-significant-digit floats, plus
CSV tables using the same float formatting.

Exit codes: 0 for a decisive result (FiniteConverged or Divergent; a
certified classification; a passing scenario), 1 for malformed input or
an unknown scenario, 2 for a command line the parser rejects, 3 for a
scenario whose checks failed, 4 for Inconclusive/Unknown outcomes.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as lio
from .energy import (
    VERDICT_INCONCLUSIVE,
    energy_density,
    energy_double_stieltjes,
    energy_one_sided,
)
from .criteria import UNKNOWN, classify_membership
from .errors import BadParams, LogMeasureError
from .fractal import box_counting_dimension, cantor_intervals
from .io import _fmt as fmt
from .measures import MonotoneCDF, QuadratureConfig, StepDensity, cdf_from_step_density
from .planar import (
    GridSpec,
    biot_savart,
    energy_planar,
    local_kinetic_energy,
    radial_cdf,
    radial_inequality_check,
    radial_pushforward_check,
)
from .scenarios import SCENARIO_NAMES, run_scenario

_PLANAR_KINDS = ("circle", "dirac", "line", "planar_points")

ENGINES = ("double", "one-sided", "density", "planar")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BadParams(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BadParams(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise BadParams(f"{path}: top-level JSON value must be an object")
    return doc


def _write_text(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _config_overrides(args) -> dict:
    return _load_json(args.config) if args.config else {}


_QUADRATURE_KEYS = ("depth_schedule", "divergence_budget", "agreement_tol")


def _quadrature_config(args, overrides: dict) -> QuadratureConfig:
    unknown = sorted(set(overrides) - set(_QUADRATURE_KEYS))
    if unknown:
        raise BadParams(f"unknown --config key {unknown[0]!r}; "
                        f"accepted keys: {', '.join(_QUADRATURE_KEYS)}")
    kwargs = {k: overrides[k] for k in _QUADRATURE_KEYS if k in overrides}
    if "depth_schedule" in kwargs:
        kwargs["depth_schedule"] = tuple(int(n) for n in kwargs["depth_schedule"])
    if args.depth is not None:
        if args.depth < 4:
            raise BadParams("--depth must be at least 4 (partition ladder 2^4..2^depth)")
        kwargs["depth_schedule"] = tuple(2**k for k in range(4, args.depth + 1))
    if args.tol is not None:
        kwargs["agreement_tol"] = args.tol
    return QuadratureConfig(**kwargs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_energy(args) -> int:
    overrides = _config_overrides(args)
    doc = _load_json(args.measure)
    kind = doc.get("kind")
    engine = args.engine
    if engine == "planar":
        if kind not in _PLANAR_KINDS:
            raise BadParams(f"engine 'planar' needs a planar measure, got kind {kind!r}")
        est = energy_planar(lio.planar_from_json(doc))
    else:
        if kind in _PLANAR_KINDS:
            raise BadParams(
                f"engine {engine!r} works on line measures; use --engine planar for kind {kind!r}"
            )
        m = lio.measure_from_json(doc)
        cfg = _quadrature_config(args, overrides)
        if engine == "density":
            if not isinstance(m, StepDensity):
                raise BadParams("engine 'density' needs a step_density measure")
            est = energy_density(m, cfg)
        else:
            if isinstance(m, StepDensity):
                m = cdf_from_step_density(m)
            est = (energy_double_stieltjes if engine == "double" else energy_one_sided)(m, cfg)
    report = {"engine": engine, "measure": doc, "estimate": est.as_dict()}
    jpath = _write_text(args.out_dir, "energy.json", lio.dumps(report))
    cpath = _write_text(args.out_dir, "trace.csv", lio.trace_csv(est.trace))
    print(f"verdict={est.verdict} value={fmt(est.value)} "
          f"lower={fmt(est.lower)} upper={fmt(est.upper)}")
    print(f"wrote {jpath} and {cpath}")
    return 4 if est.verdict == VERDICT_INCONCLUSIVE else 0


def _cmd_classify(args) -> int:
    overrides = _config_overrides(args)
    doc = _load_json(args.measure)
    if doc.get("kind") in _PLANAR_KINDS:
        raise BadParams("classify works on line measures (CDFs and step densities)")
    m = lio.measure_from_json(doc)
    cfg = _quadrature_config(args, overrides)
    verdict = classify_membership(m, cfg)
    report = {"measure": doc, "classification": verdict.as_dict()}
    jpath = _write_text(args.out_dir, "classify.json", lio.dumps(report))
    print(f"verdict={verdict.verdict} rule={verdict.rule}")
    print(f"wrote {jpath}")
    return 4 if verdict.verdict == UNKNOWN else 0


def _cmd_cantor(args) -> int:
    overrides = _config_overrides(args)
    if not overrides:
        raise BadParams("cantor needs --config with a construction document "
                        '(e.g. {"kind": "cantor", "family": "standardK", "K": 3, "depth": 30})')
    spec = lio.cantor_spec_from_json(overrides)
    level = args.depth if args.depth is not None else min(spec.depth, 10)
    ints = cantor_intervals(spec, level)
    report = {
        "spec": lio.cantor_spec_to_json(spec),
        "level": ints.level,
        "count": ints.count,
        "width_log": ints.width_log,
        "strictly_thin": spec.strictly_thin,
    }
    jpath = _write_text(args.out_dir, "cantor.json", lio.dumps(report))
    cpath = _write_text(args.out_dir, "intervals.csv", lio.intervals_csv(ints))
    print(f"level={ints.level} count={ints.count} width_log={fmt(ints.width_log)}")
    print(f"wrote {jpath} and {cpath}")
    return 0


def _cmd_radial(args) -> int:
    overrides = _config_overrides(args)
    doc = _load_json(args.measure)
    if doc.get("kind") not in _PLANAR_KINDS:
        raise BadParams("radial needs a planar measure file")
    P = lio.planar_from_json(doc)
    center = overrides.get("center", [0.0, 0.0])
    if not (isinstance(center, (list, tuple)) and len(center) == 2):
        raise BadParams('config "center" must be a pair [x, y]')
    x0 = (float(center[0]), float(center[1]))
    prof = radial_cdf(P, x0)
    ineq = radial_inequality_check(P, x0)
    tags = overrides.get("pushforward", ["r^2", "min(r,1)", "1"])
    push = []
    for tag in tags:
        res = radial_pushforward_check(P, x0, str(tag))
        row = {"h": str(tag)}
        row.update(res)
        push.append(row)
    report = {
        "center": [x0[0], x0[1]],
        "profile_mass": prof.G.total_mass,
        "inequality": {
            "lhs_lower": ineq["lhs_lower"],
            "rhs_lower": ineq["rhs_lower"],
            "holds_pointwise": ineq["holds_pointwise"],
        },
        "pushforward": push,
    }
    jpath = _write_text(args.out_dir, "radial.json", lio.dumps(report))
    rows = [[r, prof.G(r)] for r in _profile_grid(prof)]
    cpath = _write_text(args.out_dir, "profile.csv", lio.table_csv(["r", "G"], rows))
    print(f"lhs_lower={fmt(ineq['lhs_lower'])} rhs_lower={fmt(ineq['rhs_lower'])} "
          f"holds_pointwise={str(bool(ineq['holds_pointwise'])).lower()}")
    print(f"wrote {jpath} and {cpath}")
    return 0


def _profile_grid(prof, size: int = 1025) -> list:
    lo, hi = prof.G.support_lo, prof.G.support_hi
    span = hi - lo if hi > lo else 1.0
    return [lo + span * i / (size - 1) for i in range(size)]


def _cmd_velocity(args) -> int:
    overrides = _config_overrides(args)
    doc = _load_json(args.measure)
    if doc.get("kind") not in _PLANAR_KINDS:
        raise BadParams("velocity needs a planar measure file")
    P = lio.planar_from_json(doc)
    g = overrides.get("grid", {})
    grid = GridSpec(
        lo_x=float(g.get("lo_x", -2.0)), lo_y=float(g.get("lo_y", -2.0)),
        hi_x=float(g.get("hi_x", 2.0)), hi_y=float(g.get("hi_y", 2.0)),
        nx=int(g.get("nx", 160)), ny=int(g.get("ny", 160)),
    )
    field = biot_savart(P, grid)
    center = overrides.get("center", [0.0, 0.0])
    r_out = float(overrides.get("r_out", 1.0))
    r_in = float(overrides.get("r_in", 0.0))
    ke = local_kinetic_energy(field, (float(center[0]), float(center[1])), r_out, r_in)
    report = {
        "grid": {"lo_x": grid.lo_x, "lo_y": grid.lo_y, "hi_x": grid.hi_x,
                 "hi_y": grid.hi_y, "nx": grid.nx, "ny": grid.ny},
        "center": [float(center[0]), float(center[1])],
        "r_out": r_out,
        "r_in": r_in,
        "kinetic_energy": ke,
        "direct_cells": field.direct_cells,
        "expansion_cells": field.expansion_cells,
        "expansion_order": field.expansion_order,
    }
    jpath = _write_text(args.out_dir, "velocity.json", lio.dumps(report))
    cpath = _write_text(args.out_dir, "velocity.csv", lio.velocity_csv(field))
    print(f"kinetic_energy={fmt(ke)} over annulus [{fmt(r_in)}, {fmt(r_out)}]")
    print(f"wrote {jpath} and {cpath}")
    return 0


def _cmd_dimension(args) -> int:
    overrides = _config_overrides(args)
    if not overrides:
        raise BadParams("dimension needs --config with a construction document")
    fit = overrides.pop("fit", {})
    spec = lio.cantor_spec_from_json(overrides)
    n_min = int(fit.get("n_min", 4))
    n_max = args.depth if args.depth is not None else int(fit.get("n_max", 16))
    est = box_counting_dimension(spec, n_min, n_max)
    report = {
        "spec": lio.cantor_spec_to_json(spec),
        "n_min": n_min,
        "n_max": n_max,
        "slope": est.slope,
        "intercept": est.intercept,
        "residual": est.residual,
    }
    jpath = _write_text(args.out_dir, "dimension.json", lio.dumps(report))
    rows = [
        [lvl, s, c, p]
        for lvl, s, c, p in zip(est.levels, est.scales_log, est.counts_log, est.pointwise)
    ]
    cpath = _write_text(
        args.out_dir, "counts.csv",
        lio.table_csv(["level", "scale_log", "count_log", "pointwise"], rows),
    )
    print(f"slope={fmt(est.slope)} residual={fmt(est.residual)}")
    print(f"wrote {jpath} and {cpath}")
    return 0


def _cmd_repro(args) -> int:
    report = run_scenario(args.scenario)
    safe = report["scenario"].replace("-", "_")
    jpath = _write_text(args.out_dir, f"repro_{safe}.json", lio.dumps(report))
    written = [jpath]
    for tname, table in report.get("tables", {}).items():
        written.append(_write_text(
            args.out_dir, f"repro_{safe}_{tname}.csv",
            lio.table_csv(table["columns"], table["rows"]),
        ))
    print(f"claim: {report['claim']}")
    for c in report["checks"]:
        print(f"  {'PASS' if c['passed'] else 'FAIL'} {c['name']}")
    print(f"{'PASS' if report['passed'] else 'FAIL'} {report['scenario']}")
    print("wrote " + " ".join(written))
    return 0 if report["passed"] else 3


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

_LADDER = "engine ladder depth: partition sizes 2^4 .. 2^depth"


def _add_common(p: argparse.ArgumentParser, measure: bool = True,
                depth: str | None = None, tol: bool = False) -> None:
    """The shared flags; --depth (with its help text) and --tol only where
    the subcommand reads them."""
    if measure:
        p.add_argument("--measure", required=True, help="input measure JSON file")
    p.add_argument("--config", help="JSON file with parameter overrides")
    p.add_argument("--out-dir", default=".", help="directory for reports (default: .)")
    if depth is not None:
        p.add_argument("--depth", type=int, help=depth)
    if tol:
        p.add_argument("--tol", type=float, help="engine agreement tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logmeasure",
        description="Positive logarithmic energy of measures: engines, "
                    "certificates, and planar diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="estimate positive log-energy")
    _add_common(p, depth=_LADDER, tol=True)
    p.add_argument("--engine", choices=ENGINES, default="double")
    p.set_defaults(fn=_cmd_energy)

    p = sub.add_parser("classify", help="membership classification")
    _add_common(p, depth=_LADDER, tol=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("cantor", help="construction intervals of a singular family")
    _add_common(p, measure=False, depth="construction level of the intervals")
    p.set_defaults(fn=_cmd_cantor)

    p = sub.add_parser("radial", help="distance profile and projection inequality")
    _add_common(p)
    p.set_defaults(fn=_cmd_radial)

    p = sub.add_parser("velocity", help="induced velocity field and local energy")
    _add_common(p)
    p.set_defaults(fn=_cmd_velocity)

    p = sub.add_parser("dimension", help="box-counting dimension table")
    _add_common(p, measure=False, depth="finest construction level of the fit")
    p.set_defaults(fn=_cmd_dimension)

    p = sub.add_parser("repro", help="run a canned named experiment")
    p.add_argument("scenario", help="one of: " + ", ".join(SCENARIO_NAMES))
    p.add_argument("--out-dir", default=".", help="directory for reports (default: .)")
    p.set_defaults(fn=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LogMeasureError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
