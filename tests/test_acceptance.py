"""End-to-end acceptance: each criterion runs named scenarios within a budget.

The experiments, their checks and their tolerances live in
``logmeasure.scenarios`` (the same registry ``logmeasure repro`` runs);
this file adds only the wall-time budgets.  Each criterion prints exactly
one summary line (visible under ``pytest -s``).
"""

import time

import pytest

from logmeasure import SCENARIO_NAMES, run_scenario

# test name: (criterion, scenario names, budget in seconds).  Criterion 9
# is the property suites of test_properties.py, collected on their own.
CRITERIA = {
    "test_criterion_1_uniform_energy": (1, ("uniform-energy",), 10.0),
    "test_criterion_2_counterexample_series": (2, ("counterexample-L1",), 1.0),
    "test_criterion_3_llogl_threshold": (3, ("llogl-threshold",), 1.0),
    "test_criterion_4_cantor_membership": (4, ("cantor-standard",), 30.0),
    "test_criterion_5_radial_reduction": (5, ("radial-circle",), 30.0),
    "test_criterion_6_power_law_membership": (6, ("power-law",), 10.0),
    "test_criterion_7_dimension_table": (7, ("dimension-table", "cantor-smallest"), 10.0),
    "test_criterion_8_velocity_consistency": (8, ("velocity-consistency",), 60.0),
    "test_criterion_10_blob_holder": (10, ("blob-holder",), 10.0),
}


def _criterion_test(num: int, names: tuple, budget: float):
    def test():
        t0 = time.perf_counter()
        reports = [run_scenario(name) for name in names]
        dt = time.perf_counter() - t0
        checks = [(r["scenario"], c) for r in reports for c in r["checks"]]
        failed = ["%s/%s" % (s, c["name"]) for s, c in checks if not c["passed"]]
        ok = not failed and dt <= budget
        print("\nCRITERION %d: %s — %s: %d of %d checks pass [%.2fs of %.0fs budget]" % (
            num, "PASS" if ok else "FAIL", " + ".join(names),
            len(checks) - len(failed), len(checks), dt, budget))
        assert all(r["passed"] for r in reports), "failed checks: " + ", ".join(failed)
        assert dt <= budget, "runtime %.2fs exceeds budget %.0fs" % (dt, budget)

    return test


# one named test per row, so each criterion keeps a stable test id
for _name, _row in CRITERIA.items():
    globals()[_name] = _criterion_test(*_row)


def test_every_scenario_in_exactly_one_criterion():
    listed = [name for _, names, _ in CRITERIA.values() for name in names]
    assert sorted(listed) == sorted(SCENARIO_NAMES)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
