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
CSV tables using the same float formatting.  Measure and ``--config``
files are read against the io module's key tables (``energy`` takes its
engine's from ``_ENGINE_KEYS``).

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
from .io import _fmt as fmt, _read
from .measures import QuadratureConfig, StepDensity, cdf_from_step_density
from .planar import (
    biot_savart,
    energy_planar,
    local_kinetic_energy,
    radial_cdf,
    radial_inequality_check,
    radial_pushforward_check,
)
from .scenarios import SCENARIO_NAMES, run_scenario

# The --config keys of each engine: the quadrature settings it reads.
_ENGINE_KEYS = {"double": lio.QUADRATURE_KEYS, "one-sided": lio.QUADRATURE_KEYS,
                "density": {"divergence_budget": lio.QUADRATURE_KEYS["divergence_budget"]},
                "planar": {}}
ENGINES = tuple(_ENGINE_KEYS)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BadParams(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BadParams(f"{path} is not valid JSON: {exc}") from None
    return doc


def _write_text(out_dir: str, name: str, text: str) -> str:
    """Write ``text`` as a new file ``name`` in ``out_dir``, replacing any
    file, symlink or hard link of that name without writing through it.

    The old name is unlinked rather than truncated: on ext4 (with its
    default ``auto_da_alloc``) truncating a file to zero and closing it, or
    renaming over it, forces writeback of the new data, while a new inode's
    pages are written back lazily.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "x", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _config(args, keys: dict) -> dict:
    """The --config file read with the key table ``keys`` (none: defaults)."""
    return _read(_load_json(args.config) if args.config else {}, keys, "--config")


def _quadrature_config(args, keys: dict) -> QuadratureConfig:
    """The --config keys, then --depth and --tol, which may set only keys of ``keys``."""
    kwargs = _config(args, keys)
    if args.depth is not None:
        if args.depth < 4:
            raise BadParams("--depth must be at least 4 (partition ladder 2^4..2^depth)")
        kwargs["depth_schedule"] = tuple(2**k for k in range(4, args.depth + 1))
    if args.tol is not None:
        kwargs["agreement_tol"] = args.tol
    unread = sorted(set(kwargs) - set(keys))
    if unread:
        raise BadParams(f"--depth/--tol set {', '.join(unread)}, which this engine does not "
                        f"read; accepted keys: {', '.join(keys) or 'none'}")
    return QuadratureConfig(**kwargs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_energy(args) -> int:
    engine = args.engine
    cfg = _quadrature_config(args, _ENGINE_KEYS[engine])
    doc = _load_json(args.measure)
    if engine == "planar":
        est = energy_planar(lio.planar_from_json(doc))
    else:
        m = lio.measure_from_json(doc)
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
    cfg = _quadrature_config(args, lio.QUADRATURE_KEYS)
    doc = _load_json(args.measure)
    m = lio.measure_from_json(doc)
    verdict = classify_membership(m, cfg)
    report = {"measure": doc, "classification": verdict.as_dict()}
    jpath = _write_text(args.out_dir, "classify.json", lio.dumps(report))
    print(f"verdict={verdict.verdict} rule={verdict.rule}")
    print(f"wrote {jpath}")
    return 4 if verdict.verdict == UNKNOWN else 0


def _cmd_cantor(args) -> int:
    spec = lio._cantor_spec(_config(args, lio.CANTOR_KEYS))
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
    v = _config(args, lio.RADIAL_KEYS)
    doc = _load_json(args.measure)
    P = lio.planar_from_json(doc)
    x0 = v["center"]
    prof = radial_cdf(P, x0)
    ineq = radial_inequality_check(P, x0)
    push = [radial_pushforward_check(P, x0, tag) for tag in v["pushforward"]]
    report = {
        "center": list(x0),
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
    v = _config(args, lio.VELOCITY_KEYS)
    doc = _load_json(args.measure)
    P = lio.planar_from_json(doc)
    field = biot_savart(P, v["grid"])
    ke = local_kinetic_energy(field, v["center"], v["r_out"], v["r_in"])
    report = {
        "grid": {k: getattr(v["grid"], k) for k in lio.GRID_KEYS},
        "center": list(v["center"]),
        "r_out": v["r_out"],
        "r_in": v["r_in"],
        "kinetic_energy": ke,
        "direct_cells": field.direct_cells,
        "expansion_cells": field.expansion_cells,
        "expansion_order": field.expansion_order,
    }
    jpath = _write_text(args.out_dir, "velocity.json", lio.dumps(report))
    cpath = _write_text(args.out_dir, "velocity.csv", lio.velocity_csv(field))
    print(f"kinetic_energy={fmt(ke)} over annulus [{fmt(v['r_in'])}, {fmt(v['r_out'])}]")
    print(f"wrote {jpath} and {cpath}")
    return 0


def _cmd_dimension(args) -> int:
    v = _config(args, lio.DIMENSION_KEYS)
    spec = lio._cantor_spec(v)
    n_min = v["fit"]["n_min"]
    n_max = args.depth if args.depth is not None else v["fit"]["n_max"]
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


# The parser of this process, built by the first ``main`` call.  Parsing
# does not change it: each call gets a fresh namespace of its own.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except LogMeasureError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
