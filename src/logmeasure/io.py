"""Deterministic JSON and CSV serialization.

Measure documents have the shape {"kind": ..., "params": {...}}; supported
kinds are "uniform", "power_law", "step_density", "cantor", "table", and
the planar cloud kinds "circle", "dirac", "planar_points", "line".  Energy
estimates, membership verdicts, refinement traces, interval lists, and
velocity fields serialize to fixed-field-order JSON or CSV.

Output is byte-deterministic: object fields are written in a fixed order
and floats are formatted with 17 significant digits (enough to round-trip
doubles exactly).  JSON has no literals for infinities, so non-finite
floats are written as the strings "inf", "-inf", and "nan" and coerced
back on load.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import BadParams
from .fractal import (
    FAMILY_GENERAL,
    FAMILY_STANDARD,
    CantorSpec,
    IntervalList,
    cantor_cdf,
    general_ratio_spec,
    standard_cantor_spec,
)
from .measures import (
    KIND_CANTOR_ITERATE,
    KIND_PIECEWISE_LINEAR,
    KIND_POWER_LAW,
    KIND_TABLE_SAMPLED,
    Block,
    MonotoneCDF,
    StepDensity,
    power_law_cdf,
    table_cdf,
    uniform_cdf,
)
from .planar import (
    PROV_CIRCLE,
    PROV_DIRAC,
    PROV_LINE,
    PlanarMeasure,
    VelocityField,
    circle_measure,
    dirac_at,
    line_measure,
    planar_measure,
)

__all__ = [
    "dumps",
    "measure_to_json",
    "measure_from_json",
    "cantor_spec_to_json",
    "cantor_spec_from_json",
    "planar_from_json",
    "trace_csv",
    "intervals_csv",
    "velocity_csv",
]

_FAMILY_NAMES = {FAMILY_STANDARD: "standardK", FAMILY_GENERAL: "general"}
_FAMILY_FROM_NAME = {v: k for k, v in _FAMILY_NAMES.items()}


def _fmt(x: float) -> str:
    """A double as a 17-significant-digit token (round-trips exactly);
    non-finite values print as nan, inf and -inf."""
    return format(float(x), ".17g")


def _write(obj, out: list) -> None:
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(_fmt(x) if math.isfinite(x) else json.dumps(_fmt(x)))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise BadParams(f"JSON object keys must be strings, got {k!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _write(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, v in enumerate(seq):
            if i:
                out.append(", ")
            _write(v, out)
        out.append("]")
    else:
        raise BadParams(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text: fixed field order, 17-digit floats."""
    out: list = []
    _write(obj, out)
    out.append("\n")
    return "".join(out)


def _as_float(v) -> float:
    """A JSON value as a float, accepting the non-finite string tokens."""
    if isinstance(v, str):
        if v in ("inf", "+inf", "Infinity"):
            return math.inf
        if v in ("-inf", "-Infinity"):
            return -math.inf
        if v == "nan":
            return math.nan
        raise BadParams(f"expected a number, got the string {v!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise BadParams(f"expected a number, got {v!r}")
    return float(v)


# ----------------------------------------------------------------------
# Line measures


def measure_to_json(m) -> dict:
    """A line measure (CDF or step density) as a measure document."""
    if isinstance(m, StepDensity):
        blocks = [
            {"a": b.a, "log_d": b.d_log, "log_h": b.h_log,
             "log_d_lo": b.d_log_lo, "log_h_lo": b.h_log_lo}
            for b in m.blocks
        ]
        return {"kind": "step_density", "params": {"blocks": blocks}}
    if isinstance(m, CantorSpec):
        return cantor_spec_to_json(m)
    if not isinstance(m, MonotoneCDF):
        raise BadParams(f"cannot serialize {type(m).__name__} as a measure")
    if "scaled_by" in m.params or "translated_by" in m.params:
        raise BadParams("scaled/translated measures have no document form")
    if m.kind == KIND_PIECEWISE_LINEAR:
        p = m.params
        return {"kind": "uniform",
                "params": {"lo": p["lo"], "hi": p["hi"], "mass": p["mass"]}}
    if m.kind == KIND_POWER_LAW:
        p = m.params
        return {"kind": "power_law",
                "params": {"c": p["c"], "alpha": p["alpha"], "R": p["R"]}}
    if m.kind == KIND_CANTOR_ITERATE:
        p = m.params
        spec = (standard_cantor_spec(p["K"], p["depth"])
                if p["family"] == FAMILY_STANDARD
                else general_ratio_spec(p["beta"], p["depth"]))
        return cantor_spec_to_json(spec)
    if m.kind == KIND_TABLE_SAMPLED:
        pts = [[x, f] for x, f in zip(m.params["xs"], m.params["fs"])]
        return {"kind": "table", "params": {"points": pts}}
    raise BadParams(f"measure kind {m.kind!r} has no document form")


def measure_from_json(doc: dict):
    """Rebuild a line measure from its document.

    Returns a MonotoneCDF for "uniform"/"power_law"/"cantor"/"table" and a
    StepDensity for "step_density".
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise BadParams("measure document needs a 'kind' field")
    kind = doc["kind"]
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise BadParams("'params' must be an object")
    if kind == "uniform":
        return uniform_cdf(_as_float(params.get("lo", 0.0)),
                           _as_float(params.get("hi", 1.0)),
                           _as_float(params.get("mass", 1.0)))
    if kind == "power_law":
        return power_law_cdf(_as_float(params.get("c", 1.0)),
                             _as_float(params.get("alpha", 0.5)),
                             _as_float(params.get("R", 1.0)))
    if kind == "step_density":
        blocks = params.get("blocks")
        if not isinstance(blocks, list) or not blocks:
            raise BadParams("step_density needs a nonempty 'blocks' list")
        out = []
        for b in blocks:
            if not isinstance(b, dict):
                raise BadParams("each block must be an object")
            out.append(Block(
                a=_as_float(b["a"]),
                d_log=_as_float(b["log_d"]),
                h_log=_as_float(b["log_h"]),
                d_log_lo=_as_float(b.get("log_d_lo", 0.0)),
                h_log_lo=_as_float(b.get("log_h_lo", 0.0)),
            ))
        return StepDensity(tuple(out))
    if kind == "cantor":
        return cantor_cdf(cantor_spec_from_json(doc))
    if kind == "table":
        pts = params.get("points")
        if not isinstance(pts, list) or not pts:
            raise BadParams("table needs a nonempty 'points' list")
        xs = [_as_float(p[0]) for p in pts]
        fs = [_as_float(p[1]) for p in pts]
        return table_cdf(xs, fs)
    raise BadParams(f"unknown measure kind {kind!r}")


def cantor_spec_to_json(spec: CantorSpec) -> dict:
    return {"kind": "cantor",
            "family": _FAMILY_NAMES[spec.family],
            "K": spec.K, "beta": spec.beta, "depth": spec.depth}


def cantor_spec_from_json(doc: dict) -> CantorSpec:
    if doc.get("kind") != "cantor":
        raise BadParams("not a cantor document")
    name = doc.get("family", "standardK")
    if name not in _FAMILY_FROM_NAME:
        raise BadParams(f"unknown cantor family {name!r}")
    depth = int(doc.get("depth", 30))
    if _FAMILY_FROM_NAME[name] == FAMILY_STANDARD:
        return standard_cantor_spec(_as_float(doc.get("K", 3.0)), depth)
    return general_ratio_spec(_as_float(doc.get("beta", 2.0)), depth)


# ----------------------------------------------------------------------
# Planar measures


def planar_from_json(doc: dict) -> PlanarMeasure:
    """Rebuild a planar point cloud from its document."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise BadParams("planar document needs a 'kind' field")
    kind = doc["kind"]
    params = doc.get("params", {})
    if kind == "circle":
        return circle_measure(int(params.get("n", 256)))
    if kind == "dirac":
        pt = params.get("point", [0.0, 0.0])
        return dirac_at((_as_float(pt[0]), _as_float(pt[1])),
                        _as_float(params.get("mass", 1.0)))
    if kind == "line":
        F = measure_from_json(params.get("cdf", {}))
        if isinstance(F, StepDensity):
            raise BadParams("line clouds need a CDF document, not a density")
        return line_measure(F, int(params.get("n", 256)))
    if kind == "planar_points":
        pts = params.get("points")
        if not isinstance(pts, list) or not pts:
            raise BadParams("planar_points needs a nonempty 'points' list")
        xy = [(_as_float(p[0]), _as_float(p[1])) for p in pts]
        ws = [_as_float(p[2]) for p in pts]
        return planar_measure(xy, ws)
    raise BadParams(f"unknown planar kind {kind!r}")


def planar_to_json(P: PlanarMeasure) -> dict:
    """A planar cloud as a document (provenance kinds with exact params
    round-trip as themselves; anything else becomes a raw point list)."""
    kind = P.provenance.get("kind")
    if kind == PROV_CIRCLE:
        return {"kind": "circle", "params": {"n": P.provenance["n"]}}
    if kind == PROV_DIRAC:
        x, y = P.provenance["point"]
        return {"kind": "dirac",
                "params": {"point": [x, y], "mass": P.provenance["mass"]}}
    if kind == PROV_LINE:
        return {"kind": "line",
                "params": {"cdf": measure_to_json(P.provenance["cdf"]),
                           "n": P.provenance["n"]}}
    pts = [[float(x), float(y), float(w)]
           for (x, y), w in zip(P.points, P.weights)]
    return {"kind": "planar_points", "params": {"points": pts}}


# ----------------------------------------------------------------------
# Reports


# Rows per %-operation in _rows_csv: enough to amortise the per-block cost,
# few enough that a block's argument tuple and text stay a few hundred KB.
_BLOCK_ROWS = 4096


def _rows_csv(header: str, row: str, columns) -> str:
    """The header line, then ``row % (c[i] for c in columns)`` for each i.

    ``row`` is a %-template ending in a newline; columns that are the same
    on every row belong in it as literal text.  Rows are formatted
    _BLOCK_ROWS at a time, one %-operation per block.  "%.17g" prints
    every double as _fmt does.
    """
    k, n = len(columns), len(columns[0])
    flat = [None] * (k * min(n, _BLOCK_ROWS))
    out = [header]
    for a in range(0, n, _BLOCK_ROWS):
        m = min(_BLOCK_ROWS, n - a)
        del flat[k * m:]
        for j, col in enumerate(columns):
            flat[j::k] = col[a:a + m]
        out.append((row * m) % tuple(flat))
    return "".join(out)


def trace_csv(trace) -> str:
    """Refinement trace as CSV with header n,lower,upper."""
    columns = tuple(zip(*trace)) or ((), (), ())
    return _rows_csv("n,lower,upper\n", "%d,%.17g,%.17g\n", columns)


def intervals_csv(il: IntervalList) -> str:
    """Surviving construction intervals as CSV (level,index,lo,width_log)."""
    row = f"{il.level},%d,%.17g,{_fmt(il.width_log)}\n"
    return _rows_csv("level,index,lo,width_log\n", row, (range(il.count), il.los))


def velocity_csv(field: VelocityField) -> str:
    """Velocity samples as CSV (x,y,ux,uy), row-major over the grid."""
    nx, ny = len(field.xs), len(field.ys)
    uv = field.values.reshape(nx * ny, 2)
    columns = (np.tile(field.xs, ny).tolist(), np.repeat(field.ys, nx).tolist(),
               uv[:, 0].tolist(), uv[:, 1].tolist())
    return _rows_csv("x,y,ux,uy\n", "%.17g,%.17g,%.17g,%.17g\n", columns)


def table_csv(columns, rows) -> str:
    """Generic table as CSV with the same float formatting as dumps."""

    def cell(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return _fmt(float(v))
        return str(v)

    lines = [",".join(str(c) for c in columns)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"
