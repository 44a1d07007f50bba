"""Paired before/after runs of lmbench, summarised in one JSON record.

    python3 tools/bench_pairs.py --parent /path/to/parent-checkout --change . \\
        --workload line-certify --seeds 61-70 --seconds 30 --traced 2 \\
        --out BENCH.json

``--parent`` and ``--change`` are checkouts holding ``lmbench/`` and
``src/`` (make the parent one with ``git archive``).  For each seed the two
sides run ``lmbench/run.py --trace 0`` back to back, the side that goes
first alternating from pair to pair.  ``--traced N`` then runs N traced
runs per side on the seeds after the last one, also alternating.  The
record for the workload (every run's result line; median and quartiles of
each end-to-end metric per side; the pairs the change won; per side, the
median over pairs of each operation's median time; the per-layer metrics of
the traced runs) is merged into ``--out`` with the core count and the
library versions.  Run it on an otherwise idle machine.

Operation times come from the ``lmbench/out/result-<workload>-seed<seed>-trace0.json``
file that each plain run writes in its checkout; a run that wrote none adds
nothing to them.

A run that exits non-zero, or whose result line does not say
``"correct": true``, ends the measurement: the record is marked
``incomplete`` with the side and seed of that run, the record so far is
written to ``--out`` (with no summaries if a pair failed) and the script
exits 1.  A run that exited non-zero leaves its exit code and the tail of
its stderr in its pair (or traced entry) in place of a result; a run with a
wrong output leaves its result line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy


STDERR_TAIL = 2000


def run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The run's result line, or its exit code and stderr tail if it failed."""
    cmd = [sys.executable, "lmbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        return {"exit_code": out.returncode, "stderr_tail": out.stderr[-STDERR_TAIL:]}
    return json.loads(out.stdout.strip().splitlines()[-1])


def mtime(path: str):
    """The file's modification time in ns, or None if there is no file."""
    try:
        return os.stat(path).st_mtime_ns
    except OSError:
        return None


def op_medians(path: str, before) -> dict:
    """Each operation's median time in the result file at ``path``; {} if
    the file is missing or still has the modification time ``before`` that
    it had before the run."""
    if mtime(path) in (None, before):
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            times = json.load(fh).get("op_times_s", {})
    except (OSError, ValueError):
        return {}
    return {op: statistics.median(ts) for op, ts in times.items() if ts}


def save(path: str, workload: str, record: dict) -> None:
    """Merge the workload's record into the JSON file at ``path``."""
    doc = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["machine"] = {"cores": os.cpu_count(), "python": platform.python_version(),
                      "numpy": numpy.__version__, "OPENBLAS_NUM_THREADS": "1 (set by lmbench)"}
    doc.setdefault("workloads", {})[workload] = record
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def failed(res: dict, record: dict, seed: int, side: str) -> bool:
    """Whether the run failed or gave a wrong output; if so, mark the record
    incomplete."""
    if "exit_code" in res:
        record["incomplete"] = f"{side} run on seed {seed} exited {res['exit_code']}"
        print(record["incomplete"], res["stderr_tail"], sep="\n", file=sys.stderr)
        return True
    if res.get("correct") is not True:
        record["incomplete"] = f"{side} run on seed {seed} gave a wrong output"
        print(record["incomplete"], file=sys.stderr)
        return True
    return False


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    sides = {"parent": args.parent, "change": args.change}

    pairs = []
    record = {"seconds": args.seconds, "pairs": pairs}
    op_times = {s: {} for s in sides}
    for k, seed in enumerate(range(first, last + 1)):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        pairs.append(pair)
        for side in order:
            path = os.path.join(sides[side], "lmbench", "out",
                                f"result-{args.workload}-seed{seed}-trace0.json")
            before = mtime(path)
            pair[side] = run(sides[side], args.workload, seed, args.seconds, 0)
            if failed(pair[side], record, seed, side):
                save(args.out, args.workload, record)
                return 1
            print(seed, side, json.dumps(pair[side]["metrics"]), flush=True)
            for op, t in op_medians(path, before).items():
                op_times[side].setdefault(op, []).append(t)

    record["end_to_end"] = {}
    for metric in pairs[0]["parent"]["metrics"]:
        vals = {s: [p[s]["metrics"][metric]["value"] for p in pairs] for s in sides}
        record["end_to_end"][metric] = {
            **{s: spread(v) for s, v in vals.items()},
            "change_lower_in_pairs": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
        }
    record["op_median_s"] = {s: {op: statistics.median(ts) for op, ts in sorted(times.items())}
                             for s, times in op_times.items()}
    record["failed_share"] = {
        s: [f"{p[s]['failed']}/{p[s]['attempted']}" for p in pairs] for s in sides}

    traced = {s: [] for s in sides}
    if args.traced:
        record["traced"] = traced
    for k in range(args.traced):
        seed = last + 1 + k
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            res = run(sides[side], args.workload, seed, args.seconds, 1)
            if failed(res, record, seed, side):
                traced[side].append({"seed": seed, **res})
                save(args.out, args.workload, record)
                return 1
            traced[side].append({"seed": seed, "metrics": {
                name: m["value"] for name, m in res["metrics"].items()}})

    save(args.out, args.workload, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
