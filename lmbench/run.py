"""Benchmark of logmeasure: one workload, one seed, one result line.

    python3 lmbench/run.py --workload line-certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/`` with one BLAS thread.  The workload's inputs are built
from the seed, then whole rounds of its operations run until the next round
would end past ``--seconds``; at least one round always runs.  Every output
is checked.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics ``setup_s``, ``round_s`` and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced rounds
(untraced first and last), reports the per-layer metrics of the traced
rounds and the tracing overhead, and writes the spans under
``lmbench/out/``.  See README.md for the design and its measurements.
"""
import os
import sys
import time

T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started (Linux, 10 ms resolution), so that
    setup_s includes the interpreter's own start-up; 0 elsewhere."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


AGE0 = _process_age()
# BLAS reads its thread count when numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("LOGMEASURE_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


class Tally:
    """Operations attempted, failed (raised or wrong) and wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def fail(self, op_name: str, what: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.notes) < 20:
            self.notes.append(f"{op_name}: {what}")


def run_op(op, tally: Tally) -> float:
    """Run, time and check one operation; return its wall seconds."""
    tally.attempted += 1
    t = time.perf_counter()
    try:
        out = op.run()
    except Exception:  # a failing operation is counted, and the run goes on
        dt = time.perf_counter() - t
        tally.fail(op.name, traceback.format_exc(limit=2).strip().splitlines()[-1], False)
        return dt
    dt = time.perf_counter() - t
    try:
        problems = op.check(out)
    except Exception:  # an output the check cannot read is a wrong output
        problems = [traceback.format_exc(limit=2).strip().splitlines()[-1]]
    if problems:
        tally.fail(op.name, "; ".join(problems), op.known_fault is None)
    return dt


def run_round(ops, tally: Tally, op_times: dict) -> float:
    """One pass over the operations; returns its wall time, checks included."""
    t = time.perf_counter()
    for op in ops:
        op_times.setdefault(op.name, []).append(run_op(op, tally))
    return time.perf_counter() - t


def timed_run(ops, tally: Tally, deadline: float) -> dict:
    op_times: dict = {}
    while True:
        last = run_round(ops, tally, op_times)
        if time.perf_counter() + last > deadline:
            break
    rounds = len(next(iter(op_times.values())))
    round_s = sum(statistics.median(ts) for ts in op_times.values())
    return {"rounds": rounds, "round_s": round_s, "op_times": op_times}


def traced_run(workload, plain_ops, tracer, tally: Tally, deadline: float) -> dict:
    untraced = [run_round(plain_ops, tally, {})]
    traced, summaries = [], []
    while True:
        tracer.install()
        try:
            traced_ops = workload.ops(tracer.wrap_cdf)
            start = tracer.mark()
            traced.append(run_round(traced_ops, tally, {}))
        finally:
            tracer.remove()
        summaries.append(tracer.summary(start))
        untraced.append(run_round(plain_ops, tally, {}))
        if time.perf_counter() + traced[-1] + untraced[-1] > deadline:
            break
    overhead = statistics.median(
        t - 0.5 * (untraced[i] + untraced[i + 1]) for i, t in enumerate(traced))
    metrics = layer_metrics(summaries)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "logmeasure", "__init__.py")):
        print(f"error: no logmeasure package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import logmeasure as lm
    import logmeasure.cli  # noqa: F401  (the package does not import its CLI)
    if not os.path.abspath(lm.__file__).startswith(SRC + os.sep):
        print(f"error: logmeasure imported from {lm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT)
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](lm, args.seed, workdir)
        ops = workload.ops()
        t_first = time.perf_counter()
        setup_s = AGE0 + (t_first - T0)
        deadline = t_first + args.seconds
        if args.trace:
            tracer = Tracer(lm)
            metrics = traced_run(workload, ops, tracer, tally, deadline)
            tracer.dump(os.path.join(OUT, f"spans-{tag}.json"))
            detail = {}
        else:
            detail = timed_run(ops, tally, deadline)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "round_s": {"value": detail["round_s"], "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "failures": tally.notes,
                   "rounds": detail.get("rounds"),
                   "op_times_s": detail.get("op_times", {})},
                  fh, indent=1)
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
