"""Self-tests of the benchmark's checks: a perturbed output must count as a
failed operation, and the unperturbed one must not.

    python3 lmbench/selftest.py

Needs numpy only; the outputs are built by hand in the shape the program
returns them, so no engine runs.
"""
import math
import os
import sys
import types

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def tally_of(output, check, known_fault=None) -> run.Tally:
    tally = run.Tally()
    run.run_op(W.Op("selftest", lambda: output, check, known_fault), tally)
    return tally


def estimate(value, lower, upper, verdict=W.FINITE):
    trace = ((16, lower - 0.2, upper + 0.2), (32, lower, upper))
    return types.SimpleNamespace(value=value, lower=lower, upper=upper,
                                 verdict=verdict, trace=trace)


def interval_table(K: float, level: int) -> np.ndarray:
    n = 2**level
    return np.column_stack((np.full(n, level), np.arange(n),
                            oracles.cantor_addresses([1.0 / K] * level),
                            np.full(n, -level * math.log(K))))


def cases():
    """(description, output, check, whether the operation must fail)."""
    exact = 1.5
    tol = W.AGREEMENT_TOL * max(1.0, exact)
    double = lambda est: W.check_line_solve(est, exact, True)  # noqa: E731
    one_sided = lambda est: W.check_line_solve(est, exact, False)  # noqa: E731
    yield "double engine, certified bracket", estimate(1.5002, 1.4996, 1.5008), double, False
    yield "double engine, energy off by 2 tol", estimate(exact + 2 * tol, 1.4996, 1.5040), double, True
    yield "double engine, lower above exact", estimate(1.5003, exact + 1e-4, 1.5005), double, True
    yield "one-sided engine, energy off by 2 tol", estimate(exact - 2 * tol, 1.4960, 1.4980), one_sided, True

    K = 3.0
    report = {"classification": {"verdict": W.MEMBER, "rule": "Holder",
                                 "witness": {"energy_bound": 2.5}}}
    wrong = {"classification": dict(report["classification"], verdict=W.DIVERGES)}
    low = {"classification": dict(report["classification"], witness={"energy_bound": 1.5})}
    verdict = lambda rep: W.check_classification(rep, W.MEMBER, K)  # noqa: E731
    yield "classify, known verdict", report, verdict, False
    yield "classify, wrong verdict", wrong, verdict, True
    yield "classify, Cantor bound below the energy", low, verdict, True

    level = 10
    table = interval_table(K, level)
    shifted = table.copy()
    shifted[517, 2] += 1e-9
    meta = {"count": 2**level}
    intervals = lambda t: W.check_intervals(meta, t, K, level)  # noqa: E731
    yield "cantor, digit-built endpoints", table, intervals, False
    yield "cantor, shifted interval endpoint", shifted, intervals, True


def main() -> int:
    problems = []
    count = 0
    for what, output, check, must_fail in cases():
        tally = tally_of(output, check)
        count += 1
        if tally.attempted != 1 or tally.failed != int(must_fail) or tally.wrong != int(must_fail):
            problems.append(f"{what}: attempted {tally.attempted}, failed {tally.failed}, "
                            f"wrong {tally.wrong}; expected failed {int(must_fail)}")
    # A known fault is counted as failed but does not make the run incorrect.
    tally = tally_of(estimate(9.0, 1.4996, 1.5008), lambda est: W.check_line_solve(est, 1.5, True),
                     known_fault="selftest fault")
    count += 1
    if (tally.failed, tally.wrong) != (1, 0):
        problems.append(f"known fault: failed {tally.failed}, wrong {tally.wrong}")
    # Reference values quoted in the README.
    for what, got, want in (("Cantor-3 energy", oracles.cantor_energy(3.0), 1.5377507385),
                            ("Cantor-9 energy", oracles.cantor_energy(9.0), 2.3181525559),
                            ("circle energy", oracles.circle_energy(), 0.3230659472)):
        count += 1
        if abs(got - want) > 1e-9:
            problems.append(f"{what}: {got!r}, expected {want!r}")
    for p in problems:
        print("FAIL", p)
    print(f"selftest: {count - len(problems)} of {count} passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
