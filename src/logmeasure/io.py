"""Deterministic JSON and CSV serialization.

Measure documents have the shape {"kind": ..., "params": {...}}, with the
params keys of each kind in the key tables LINE_KEYS and PLANAR_KEYS; the
"cantor" kind has CANTOR_KEYS at the top level.  _read reads every JSON
document (these and the CLI's --config files) against its key table.  Energy
estimates, membership verdicts, refinement traces, interval lists, and
velocity fields serialize to fixed-field-order JSON or CSV.

Output is byte-deterministic: object fields are written in a fixed order
and floats are formatted with 17 significant digits (enough to round-trip
doubles exactly).  JSON has no literals for infinities, so non-finite
floats are written as the strings "inf", "-inf", and "nan" and coerced
back on load.
"""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .errors import BadParams, LogMeasureError
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
    QuadratureConfig,
    StepDensity,
    power_law_cdf,
    table_cdf,
    uniform_cdf,
)
from .planar import (
    PROV_CIRCLE,
    PROV_DIRAC,
    PROV_LINE,
    GridSpec,
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
        raise ValueError(f"expected a number, got the string {v!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def _as_int(v) -> int:
    """A JSON value as an int: an integer, or a float with no fractional
    part (a fractional part is an error, never truncated)."""
    if not (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


# ----------------------------------------------------------------------
# Key tables


_REQUIRED = object()  # the default of a key that must be present


def _read(doc, keys: dict, what: str) -> dict:
    """Each key of the table ``keys`` (key -> (converter, default)) with
    its converted value in the object ``doc``, or its converted default.
    Other keys, missing required keys and values the converter rejects
    raise BadParams naming the key, the accepted keys and ``what``."""
    accepted = f"accepted keys: {', '.join(keys) or 'none'}"
    if not isinstance(doc, dict):
        raise BadParams(f"{what} must be a JSON object; {accepted}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise BadParams(f"unknown {what} key {unknown[0]!r}; {accepted}")
    out = {}
    for key, (convert, default) in keys.items():
        if key not in doc and default is _REQUIRED:
            raise BadParams(f"{what} needs the key {key!r}; {accepted}")
        try:
            out[key] = convert(doc.get(key, default))
        except LogMeasureError:  # from a nested document: it names its key
            raise
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise BadParams(f"{what} key {key!r}: {exc}; {accepted}") from None
    return out


def _list(v, n: int = 0) -> list:
    """v if it is a JSON list of n items, or of at least one when n is 0."""
    if not isinstance(v, list) or (len(v) != n if n else not v):
        raise ValueError(f"expected a list of {n or 'one or more'} items")
    return v


def _floats(v, n: int) -> tuple:
    return tuple(_as_float(x) for x in _list(v, n))


_POINT = (lambda v: _floats(v, 2), [0.0, 0.0])
BLOCK_KEYS = {"a": (_as_float, _REQUIRED), "log_d": (_as_float, _REQUIRED),  # Block's order
              "log_h": (_as_float, _REQUIRED), "log_d_lo": (_as_float, 0.0),
              "log_h_lo": (_as_float, 0.0)}
LINE_KEYS = {
    "uniform": {"lo": (_as_float, 0.0), "hi": (_as_float, 1.0), "mass": (_as_float, 1.0)},
    "power_law": {"c": (_as_float, 1.0), "alpha": (_as_float, 0.5), "R": (_as_float, 1.0)},
    "step_density": {"blocks": (lambda v: tuple(
        Block(*_read(b, BLOCK_KEYS, "step_density block").values()) for b in _list(v)),
        _REQUIRED)},
    "table": {"points": (lambda v: [_floats(p, 2) for p in _list(v)], _REQUIRED)},
}
CANTOR_KEYS = {"kind": ({"cantor": "cantor"}.__getitem__, _REQUIRED),
               "family": (_FAMILY_FROM_NAME.__getitem__, "standardK"),
               "K": (_as_float, 3.0), "beta": (_as_float, 2.0), "depth": (_as_int, 30)}
PLANAR_KEYS = {
    "circle": {"n": (_as_int, 256)},
    "dirac": {"point": _POINT, "mass": (_as_float, 1.0)},
    "line": {"cdf": (lambda v: measure_from_json(v), _REQUIRED), "n": (_as_int, 256)},
    "planar_points": {"points": (lambda v: [_floats(p, 3) for p in _list(v)], _REQUIRED)},
}
_ENVELOPE = {"kind": (str, _REQUIRED), "params": (lambda v: v, {})}

# The --config documents of the subcommands (see the cli module).
QUADRATURE_KEYS = {f.name: (_as_float, f.default) for f in dataclasses.fields(QuadratureConfig)}
QUADRATURE_KEYS["depth_schedule"] = (lambda v: tuple(_as_int(n) for n in v),
                                     QuadratureConfig.depth_schedule)
RADIAL_KEYS = {"center": _POINT, "pushforward": (
    lambda v: tuple(str(tag) for tag in _list(v)), ["r^2", "min(r,1)", "1"])}
GRID_KEYS = {"lo_x": (_as_float, -2.0), "lo_y": (_as_float, -2.0), "hi_x": (_as_float, 2.0),
             "hi_y": (_as_float, 2.0), "nx": (_as_int, 160), "ny": (_as_int, 160)}
VELOCITY_KEYS = {"grid": (lambda v: GridSpec(**_read(v, GRID_KEYS, "--config grid")), {}),
                 "center": _POINT, "r_out": (_as_float, 1.0), "r_in": (_as_float, 0.0)}
FIT_KEYS = {"n_min": (_as_int, 4), "n_max": (_as_int, 16)}
DIMENSION_KEYS = {**CANTOR_KEYS,
                  "fit": (lambda v: _read(v, FIT_KEYS, "--config fit"), {})}


def _params(doc, tables: dict, what: str) -> tuple:
    """The kind of a {"kind", "params"} document and its params, read."""
    kind, params = _read(doc, _ENVELOPE, f"{what} document").values()
    if kind not in tables:
        raise BadParams(f"unknown {what} kind {kind!r}")
    return kind, _read(params, tables[kind], kind)


def _doc(kind: str, tables: dict, values) -> dict:
    """The {"kind", "params"} document with the kind's keys, in table order."""
    return {"kind": kind, "params": dict(zip(tables[kind], values, strict=True))}


# ----------------------------------------------------------------------
# Line measures


def measure_to_json(m) -> dict:
    """A line measure (CDF or step density) as a measure document."""
    if isinstance(m, StepDensity):
        blocks = [dict(zip(BLOCK_KEYS, dataclasses.astuple(b), strict=True)) for b in m.blocks]
        return _doc("step_density", LINE_KEYS, (blocks,))
    if isinstance(m, CantorSpec):
        return cantor_spec_to_json(m)
    if not isinstance(m, MonotoneCDF):
        raise BadParams(f"cannot serialize {type(m).__name__} as a measure")
    if "scaled_by" in m.params or "translated_by" in m.params:
        raise BadParams("scaled/translated measures have no document form")
    p = m.params
    if m.kind == KIND_PIECEWISE_LINEAR:
        return _doc("uniform", LINE_KEYS, (p["lo"], p["hi"], p["mass"]))
    if m.kind == KIND_POWER_LAW:
        return _doc("power_law", LINE_KEYS, (p["c"], p["alpha"], p["R"]))
    if m.kind == KIND_CANTOR_ITERATE:
        return cantor_spec_to_json(_cantor_spec(p))
    if m.kind == KIND_TABLE_SAMPLED:
        return _doc("table", LINE_KEYS, ([[x, f] for x, f in zip(p["xs"], p["fs"])],))
    raise BadParams(f"measure kind {m.kind!r} has no document form")


def measure_from_json(doc: dict):
    """Rebuild a line measure from its document.

    Returns a MonotoneCDF for "uniform"/"power_law"/"cantor"/"table" and a
    StepDensity for "step_density".
    """
    if isinstance(doc, dict) and doc.get("kind") == "cantor":
        return cantor_cdf(cantor_spec_from_json(doc))
    kind, v = _params(doc, LINE_KEYS, "measure")
    if kind == "uniform":
        return uniform_cdf(**v)
    if kind == "power_law":
        return power_law_cdf(**v)
    if kind == "step_density":
        return StepDensity(v["blocks"])
    xs, fs = zip(*v["points"])
    return table_cdf(list(xs), list(fs))


def cantor_spec_to_json(spec: CantorSpec) -> dict:
    return dict(zip(CANTOR_KEYS, ("cantor", _FAMILY_NAMES[spec.family],
                                  spec.K, spec.beta, spec.depth), strict=True))


def _cantor_spec(v: dict) -> CantorSpec:
    """The construction with v's family, K or beta, and depth."""
    if v["family"] == FAMILY_STANDARD:
        return standard_cantor_spec(v["K"], v["depth"])
    return general_ratio_spec(v["beta"], v["depth"])


def cantor_spec_from_json(doc: dict) -> CantorSpec:
    return _cantor_spec(_read(doc, CANTOR_KEYS, "cantor"))


# ----------------------------------------------------------------------
# Planar measures


def planar_from_json(doc: dict) -> PlanarMeasure:
    """Rebuild a planar point cloud from its document."""
    kind, v = _params(doc, PLANAR_KEYS, "planar")
    if kind == "circle":
        return circle_measure(v["n"])
    if kind == "dirac":
        return dirac_at(v["point"], v["mass"])
    if kind == "line":
        if isinstance(v["cdf"], StepDensity):
            raise BadParams("line clouds need a CDF document, not a density")
        return line_measure(v["cdf"], v["n"])
    rows = v["points"]
    return planar_measure([r[:2] for r in rows], [r[2] for r in rows])


def planar_to_json(P: PlanarMeasure) -> dict:
    """A planar cloud as a document (provenance kinds with exact params
    round-trip as themselves; anything else becomes a raw point list)."""
    kind, prov = P.provenance.get("kind"), P.provenance
    if kind == PROV_CIRCLE:
        return _doc("circle", PLANAR_KEYS, (prov["n"],))
    if kind == PROV_DIRAC:
        return _doc("dirac", PLANAR_KEYS, (list(prov["point"]), prov["mass"]))
    if kind == PROV_LINE:
        return _doc("line", PLANAR_KEYS, (measure_to_json(prov["cdf"]), prov["n"]))
    pts = [[float(x), float(y), float(w)]
           for (x, y), w in zip(P.points, P.weights)]
    return _doc("planar_points", PLANAR_KEYS, (pts,))


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
