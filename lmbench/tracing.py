"""Spans around the calls into ``logmeasure``, recorded from outside it.

``Tracer.install`` replaces every public function of the layer modules, in
every ``logmeasure`` namespace that binds it, with a wrapper that records a
span (name, parent, start, end) and, for a few functions, a count read
off the call's arguments or result.  Line measures that the program or the
benchmark builds get their ``evaluator`` and ``quantile`` wrapped through
``dataclasses.replace``, so point evaluations are timed and counted too.
``Tracer.remove`` restores the original objects; nothing inside the package
is edited.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import statistics
import time

import numpy as np

# Modules whose public functions get spans.  The others (scenarios,
# defaults, errors) only define fixed experiments or exceptions; they are
# still patched where they bind a layer function.
LAYERS = ("measures", "fractal", "energy", "criteria", "planar", "io", "cli")
CANTOR_KIND = "CantorIterate"


def _points(out, args, kwargs):
    return {"points": int(np.size(args[0]))}


def _planar_pairs(out, args, kwargs):
    return {"pairs": sum(n * (n - 1) // 2 for n, _, _ in out.trace)}


def _bs_evals(out, args, kwargs):
    measure, grid = args[0], args[1]
    return {"evals": grid.nx * grid.ny * measure.n_atoms}


def _solve(out, args, kwargs):
    return {"n_final": int(out.trace[-1][0]) if out.trace else 0,
            "rounds": len(out.trace)}


def _text_bytes(out, args, kwargs):
    return {"bytes": len(out.encode("utf-8"))}


def _fallback(out, args, kwargs):
    return {"energy_fallbacks": int(out.rule == "EnergyDirect")}


# Per-call counts, keyed by span name.
NOTES = {
    "energy.energy_double_stieltjes": _solve,
    "energy.energy_one_sided": _solve,
    "criteria.classify_membership": _fallback,
    "planar.energy_planar": _planar_pairs,
    "planar.biot_savart": _bs_evals,
    "io.dumps": _text_bytes,
    "io.trace_csv": _text_bytes,
    "io.intervals_csv": _text_bytes,
    "io.velocity_csv": _text_bytes,
    "io.table_csv": _text_bytes,
}


# (metric, span name or names, field of the span summary, unit)
PER_LAYER = [
    ("measures.cdf_s", "measures.cdf", "total", "s"),
    ("measures.cdf_points", "measures.cdf", "points", "count"),
    ("measures.quantile_s", "measures.quantile", "total", "s"),
    ("measures.quantile_points", "measures.quantile", "points", "count"),
    ("measures.sampled_modulus_s", "measures.sampled_modulus", "total", "s"),
    ("measures.sampled_modulus_calls", "measures.sampled_modulus", "calls", "count"),
    ("fractal.cdf_s", "fractal.cdf", "total", "s"),
    ("fractal.cdf_points", "fractal.cdf", "points", "count"),
    ("fractal.intervals_s", "fractal.cantor_intervals", "total", "s"),
    ("energy.double.self_s", "energy.energy_double_stieltjes", "self", "s"),
    ("energy.double.n_final", "energy.energy_double_stieltjes", "n_final", "count"),
    ("energy.double.rounds", "energy.energy_double_stieltjes", "rounds", "count"),
    ("energy.one_sided.self_s", "energy.energy_one_sided", "self", "s"),
    ("energy.one_sided.n_final", "energy.energy_one_sided", "n_final", "count"),
    ("energy.one_sided.rounds", "energy.energy_one_sided", "rounds", "count"),
    ("energy.density_s", "energy.energy_density", "total", "s"),
    ("criteria.classify.self_s", "criteria.classify_membership", "self", "s"),
    ("criteria.fit_holder_s", "criteria.fit_holder", "total", "s"),
    ("criteria.log_modulus_s", "criteria.check_log_modulus", "total", "s"),
    ("criteria.energy_fallbacks", "criteria.classify_membership", "energy_fallbacks", "count"),
    ("planar.energy.self_s", "planar.energy_planar", "self", "s"),
    ("planar.pairs", "planar.energy_planar", "pairs", "count"),
    ("planar.radial_s", "planar.radial_cdf", "total", "s"),
    ("planar.inequality_s", "planar.radial_inequality_check", "total", "s"),
    ("planar.biot_savart_s", "planar.biot_savart", "total", "s"),
    ("planar.biot_savart_evals", "planar.biot_savart", "evals", "count"),
    ("planar.kinetic_s", "planar.local_kinetic_energy", "total", "s"),
    ("io.dumps_s", "io.dumps", "total", "s"),
    ("io.bytes_written", ("io.dumps", "io.trace_csv", "io.intervals_csv",
                          "io.velocity_csv", "io.table_csv"), "bytes", "count"),
    ("cli.self_s", "cli.main", "self", "s"),
]


def layer_metrics(summaries) -> dict:
    """The per-layer metrics: medians over the traced rounds' summaries."""
    metrics = {}
    for metric, names, field, unit in PER_LAYER:
        names = (names,) if isinstance(names, str) else names
        values = [sum(s.get(n, {}).get(field, 0) for n in names) for s in summaries]
        value = statistics.median(values)
        metrics[metric] = {"value": int(value) if unit == "count" else float(value), "unit": unit}
    return metrics


class Tracer:
    """In-memory span recorder; one instance per benchmark process."""

    def __init__(self, package):
        self.package = package
        self._monotone = package.measures.MonotoneCDF
        self.spans = []   # [name, parent index, start, end, counts or None]
        self._stack = []
        self._saved = []  # (namespace, attribute, original object)

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(out, args, kwargs)
            return self.wrap_cdf(out) if isinstance(out, self._monotone) else out

        traced.lmbench_traced = True
        return traced

    def wrap_cdf(self, F):
        """A copy of the line measure F whose evaluator and quantile record
        spans; Cantor-kind evaluators are the fractal layer's."""
        if getattr(F.evaluator, "lmbench_traced", False):
            return F
        label = "fractal.cdf" if F.kind == CANTOR_KIND else "measures.cdf"
        changes = {"evaluator": self.wrap(label, F.evaluator, _points)}
        if F.quantile is not None:
            changes["quantile"] = self.wrap("measures.quantile", F.quantile, _points)
        return dataclasses.replace(F, **changes)

    # -- patching ------------------------------------------------------------

    def install(self):
        """Patch every public layer function in every namespace binding it."""
        pkg = self.package
        namespaces = [pkg] + [m for m in vars(pkg).values() if inspect.ismodule(m)
                              and m.__name__.startswith(pkg.__name__ + ".")]
        for layer in LAYERS:
            module = getattr(pkg, layer)
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, NOTES.get(name))
                for ns in namespaces:
                    for key, val in vars(ns).copy().items():
                        if val is fn:
                            self._saved.append((ns, key, val))
                            setattr(ns, key, traced)

    def remove(self):
        for ns, key, val in reversed(self._saved):
            setattr(ns, key, val)
        self._saved.clear()

    # -- reading ------------------------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def summary(self, start: int) -> dict:
        """Per-name totals over spans recorded since `start`.

        ``total`` counts only outermost spans of a name (a CDF built from
        another nests its evaluator inside its own), ``self`` subtracts the
        time of direct children, and counts add up over outermost spans.
        """
        spans = self.spans
        child_time = {}
        for i in range(start, len(spans)):
            parent = spans[i][1]
            if parent >= start:
                child_time[parent] = child_time.get(parent, 0.0) + spans[i][3] - spans[i][2]
        out = {}
        for i in range(start, len(spans)):
            name, parent, t0, t1, counts = spans[i]
            agg = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            agg["self"] += (t1 - t0) - child_time.get(i, 0.0)
            if self._inside_same_name(i, start):
                continue
            agg["total"] += t1 - t0
            agg["calls"] += 1
            for key, val in (counts or {}).items():
                agg[key] = agg.get(key, 0) + val
        return out

    def _inside_same_name(self, i: int, start: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][1]
        while parent >= start:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def dump(self, path: str) -> None:
        """Write all spans as JSON rows [name, parent, start, end, counts]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "parent", "start", "end", "counts"],
                       "spans": self.spans}, fh)

