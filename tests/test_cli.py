"""End-to-end CLI contract: subcommands, exit codes, deterministic output."""
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from logmeasure import cli
from logmeasure import io as lio
from logmeasure.fractal import cantor_intervals, standard_cantor_spec
from logmeasure.planar import GridSpec, biot_savart
from oracles import intervals_csv_reference, velocity_csv_reference

CORPUS = pathlib.Path(__file__).parent / "corpus"


def _lines(text: str) -> list:
    """The text's lines with their endings: equal lists mean equal texts, and
    pytest reports the first differing line of a large CSV quickly."""
    return text.splitlines(keepends=True)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "logmeasure.cli", *map(str, args)],
        capture_output=True, text=True,
    )


class TestEnergyCommand:
    def test_uniform_double(self, tmp_path):
        r = run_cli("energy", "--measure", CORPUS / "uniform.json",
                    "--engine", "double", "--out-dir", tmp_path)
        assert r.returncode == 0
        assert "verdict=FiniteConverged" in r.stdout
        doc = json.loads((tmp_path / "energy.json").read_text())
        assert doc["engine"] == "double"
        assert abs(doc["estimate"]["value"] - 1.5001773577511441) < 1e-12
        assert doc["estimate"]["stop_reason"] == "agreement"
        assert doc["estimate"]["upper_kind"] == "modulus"
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "n,lower,upper"
        assert len(trace) >= 3
        # one work entry (n, near pairs, far pairs) per traced round
        work = doc["estimate"]["work"]
        assert [w[0] for w in work] == [int(row.split(",")[0]) for row in trace[1:]]

    def test_divergent_density_exits_zero(self, tmp_path):
        r = run_cli("energy", "--measure", CORPUS / "step_divergent.json",
                    "--engine", "density", "--out-dir", tmp_path)
        assert r.returncode == 0
        assert "verdict=Divergent" in r.stdout
        doc = json.loads((tmp_path / "energy.json").read_text())
        assert doc["estimate"]["verdict"] == "Divergent"
        assert doc["estimate"]["value"] == "inf"

    def test_atom_table_one_sided_is_malformed(self, tmp_path):
        r = run_cli("energy", "--measure", CORPUS / "table_with_atom.json",
                    "--engine", "one-sided", "--out-dir", tmp_path)
        assert r.returncode == 1
        assert "DiscontinuousInput" in r.stderr

    def test_planar_engine(self, tmp_path):
        r = run_cli("energy", "--measure", CORPUS / "circle64.json",
                    "--engine", "planar", "--out-dir", tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / "energy.json").read_text())
        assert abs(doc["estimate"]["value"] - 0.3218262627019117) < 1e-12
        # one (atoms, kernel evaluations, pairs represented) entry per level:
        # a circle level of n atoms is summed from its n - 1 rotation classes
        work = doc["estimate"]["work"]
        assert [w[0] for w in work] == [row[0] for row in doc["estimate"]["trace"]]
        assert work[-1] == [4096, 4095, 8386560]

    def test_engine_measure_mismatch(self, tmp_path):
        r = run_cli("energy", "--measure", CORPUS / "circle64.json",
                    "--engine", "double", "--out-dir", tmp_path)
        assert r.returncode == 1
        r = run_cli("energy", "--measure", CORPUS / "uniform.json",
                    "--engine", "planar", "--out-dir", tmp_path)
        assert r.returncode == 1

    def test_density_engine_needs_density(self, tmp_path):
        r = run_cli("energy", "--measure", CORPUS / "uniform.json",
                    "--engine", "density", "--out-dir", tmp_path)
        assert r.returncode == 1

    def test_missing_file_is_malformed(self, tmp_path):
        r = run_cli("energy", "--measure", tmp_path / "nope.json",
                    "--out-dir", tmp_path)
        assert r.returncode == 1

    def test_invalid_json_is_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        r = run_cli("energy", "--measure", bad, "--out-dir", tmp_path)
        assert r.returncode == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        # a misspelt agreement_tol used to run silently with the default
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"agreement_tolerance": 0.5}))
        out = tmp_path / "out"
        r = run_cli("energy", "--measure", CORPUS / "uniform.json",
                    "--config", cfg, "--out-dir", out)
        assert r.returncode == 1
        assert "agreement_tolerance" in r.stderr
        assert not out.exists()

    def test_one_sided_schedule_outside_outer_range(self, tmp_path):
        r = run_cli("energy", "--measure", CORPUS / "uniform.json",
                    "--engine", "one-sided", "--depth", 7, "--out-dir", tmp_path)
        assert r.returncode == 1
        assert "BadParams" in r.stderr

    def test_depth_and_tol_flags(self, tmp_path):
        r = run_cli("energy", "--measure", CORPUS / "uniform.json",
                    "--depth", 6, "--tol", 0.05, "--out-dir", tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / "energy.json").read_text())
        # ladder capped at 2^6: no trace entry beyond 64 cells
        assert max(int(t[0]) for t in doc["estimate"]["trace"]) <= 64

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            r = run_cli("energy", "--measure", CORPUS / "uniform.json",
                        "--out-dir", d)
            assert r.returncode == 0
        assert (a / "energy.json").read_bytes() == (b / "energy.json").read_bytes()
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


class TestClassifyCommand:
    @pytest.mark.parametrize("name,rule", [
        ("uniform.json", "Lipschitz"),
        ("cantor3.json", "Holder"),
        ("step_divergent.json", "LowerBoundSeries"),
        ("table_with_atom.json", "EnergyDirect"),
    ])
    def test_certified_rules(self, tmp_path, name, rule):
        r = run_cli("classify", "--measure", CORPUS / name, "--out-dir", tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / "classify.json").read_text())
        assert doc["classification"]["rule"] == rule

    def test_unknown_exits_four_and_names_each_declined_rule(self, tmp_path):
        # an extremely flat equal-ratio family: fitted exponent ~1/21 falls
        # below every certification gate, and no divergence witness exists
        # (a shallow engine ladder keeps the direct-energy probe cheap)
        m = tmp_path / "flat.json"
        m.write_text(json.dumps({"kind": "cantor", "family": "standardK",
                                 "K": 2097152.0, "beta": 2, "depth": 30}))
        r = run_cli("classify", "--measure", m, "--depth", 6,
                    "--out-dir", tmp_path)
        assert r.returncode == 4
        doc = json.loads((tmp_path / "classify.json").read_text())
        assert doc["classification"]["verdict"] == "Unknown"
        declined = doc["classification"]["witness"]["declined"]
        assert [d["rule"] for d in declined] == [
            "Lipschitz", "Holder", "LogModulus", "EnergyDirect"]
        assert all(d["reason"] for d in declined)
        assert "schedule_exhausted" in declined[-1]["reason"]


class TestCantorCommand:
    def test_intervals(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(
            {"kind": "cantor", "family": "standardK", "K": 3.0, "depth": 30}))
        r = run_cli("cantor", "--config", cfg, "--depth", 6, "--out-dir", tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / "cantor.json").read_text())
        assert doc["count"] == 64
        rows = (tmp_path / "intervals.csv").read_text().splitlines()
        assert rows[0] == "level,index,lo,width_log"
        assert len(rows) == 65

    def test_intervals_match_reference_writer(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(
            {"kind": "cantor", "family": "standardK", "K": 3.0, "depth": 30}))
        r = run_cli("cantor", "--config", cfg, "--depth", 13, "--out-dir", tmp_path)
        assert r.returncode == 0
        expected = intervals_csv_reference(cantor_intervals(standard_cantor_spec(3.0), 13))
        assert _lines((tmp_path / "intervals.csv").read_text()) == _lines(expected)

    def test_config_required(self, tmp_path):
        r = run_cli("cantor", "--out-dir", tmp_path)
        assert r.returncode == 1

    @staticmethod
    def _cantor(out, depth):
        argv = ["cantor", "--config", CORPUS / "cantor3.json", "--depth", depth, "--out-dir", out]
        assert cli.main([str(a) for a in argv]) == 0

    def test_rewrite_matches_fresh_directory(self, tmp_path):
        out = tmp_path / "out"
        self._cantor(out, 6)
        old = out / "intervals.csv"
        old_text = old.read_text()
        with open(old, encoding="utf-8") as held:
            # holding the old file open keeps its inode number from being reused
            self._cantor(out, 3)
            assert os.fstat(held.fileno()).st_ino != os.stat(old).st_ino
            assert held.read() == old_text  # written around, not truncated
        self._cantor(tmp_path / "fresh", 3)
        for name in ("cantor.json", "intervals.csv"):
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_report_replaces_links(self, tmp_path):
        # a symlink or hard link at a report's name is replaced by a new
        # regular file; what it pointed at keeps its contents
        out, target = tmp_path / "out", tmp_path / "target.txt"
        out.mkdir()
        target.write_text("keep\n")
        (out / "cantor.json").symlink_to(target)
        os.link(target, out / "intervals.csv")
        self._cantor(out, 3)
        self._cantor(tmp_path / "fresh", 3)
        assert target.read_text() == "keep\n"
        assert os.stat(target).st_nlink == 1
        for name in ("cantor.json", "intervals.csv"):
            assert not (out / name).is_symlink()
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


class TestRadialCommand:
    def test_circle_projection(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"center": [1.0, 0.0]}')
        r = run_cli("radial", "--measure", CORPUS / "circle64.json",
                    "--config", cfg, "--out-dir", tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / "radial.json").read_text())
        assert abs(doc["inequality"]["lhs_lower"] - 0.25815902532562696) < 1e-12
        assert abs(doc["inequality"]["rhs_lower"] - 0.8567415484127838) < 1e-12
        assert doc["inequality"]["holds_pointwise"] is True
        assert all(row["gap"] == 0 for row in doc["pushforward"])
        prof = (tmp_path / "profile.csv").read_text().splitlines()
        assert prof[0] == "r,G"

    def test_needs_planar_measure(self, tmp_path):
        r = run_cli("radial", "--measure", CORPUS / "uniform.json",
                    "--out-dir", tmp_path)
        assert r.returncode == 1


class TestVelocityCommand:
    def test_field_and_energy(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"lo_x": -1.5, "lo_y": -1.5, "hi_x": 2.0, "hi_y": 1.75,
                     "nx": 32, "ny": 32},
            "center": [0.25, 0.0], "r_out": 1.0, "r_in": 0.1}))
        r = run_cli("velocity", "--measure", CORPUS / "dirac.json",
                    "--config", cfg, "--out-dir", tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / "velocity.json").read_text())
        assert doc["kinetic_energy"] > 0.0
        rows = (tmp_path / "velocity.csv").read_text().splitlines()
        assert rows[0] == "x,y,ux,uy"
        assert len(rows) == 32 * 32 + 1

    @pytest.mark.parametrize("corpus,direct,order", [
        ("dirac.json", 0, 0),  # one atom: every cell from the order-0 expansion
        ("circle64.json", 160 * 160, 34),  # the near square covers the grid
    ])
    def test_work_record(self, tmp_path, corpus, direct, order):
        r = run_cli("velocity", "--measure", CORPUS / corpus, "--out-dir", tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / "velocity.json").read_text())
        assert (doc["direct_cells"], doc["expansion_cells"], doc["expansion_order"]) == \
            (direct, 160 * 160 - direct, order)

    def test_default_grid_matches_reference_writer(self, tmp_path):
        r = run_cli("velocity", "--measure", CORPUS / "dirac.json", "--out-dir", tmp_path)
        assert r.returncode == 0
        P = lio.planar_from_json(json.loads((CORPUS / "dirac.json").read_text()))
        field = biot_savart(P, GridSpec(-2.0, -2.0, 2.0, 2.0, 160, 160))
        assert _lines((tmp_path / "velocity.csv").read_text()) == \
            _lines(velocity_csv_reference(field))


class TestDimensionCommand:
    def test_slope_table(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(
            {"kind": "cantor", "family": "standardK", "K": 3.0, "depth": 30}))
        r = run_cli("dimension", "--config", cfg, "--out-dir", tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / "dimension.json").read_text())
        assert abs(doc["slope"] - math.log(2.0) / math.log(3.0)) < 1e-6
        rows = (tmp_path / "counts.csv").read_text().splitlines()
        assert rows[0] == "level,scale_log,count_log,pointwise"


class TestReproCommand:
    def test_unknown_scenario_exits_one(self, tmp_path):
        r = run_cli("repro", "no-such-thing", "--out-dir", tmp_path)
        assert r.returncode == 1

    def test_fast_scenario_passes(self, tmp_path):
        r = run_cli("repro", "llogl-threshold", "--out-dir", tmp_path)
        assert r.returncode == 0
        assert "PASS llogl-threshold" in r.stdout
        doc = json.loads((tmp_path / "repro_llogl_threshold.json").read_text())
        assert doc["passed"] is True
        assert doc["claim"]
        assert all(c["passed"] for c in doc["checks"])

    def test_tables_written_as_csv(self, tmp_path):
        r = run_cli("repro", "counterexample-L1", "--out-dir", tmp_path)
        assert r.returncode == 0
        rows = (tmp_path /
                "repro_counterexample_L1_lower_bound_terms.csv").read_text().splitlines()
        assert rows[0] == "n,term"
        assert len(rows) == 21  # header + first 20 terms
        assert rows[1] == "1,1"

    def test_config_flag_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        out = tmp_path / "out"
        r = run_cli("repro", "llogl-threshold", "--config", cfg, "--out-dir", out)
        assert r.returncode == 2
        assert "--config" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("radial", "--measure", CORPUS / "circle64.json", "--tol", "0.1"),
        ("velocity", "--measure", CORPUS / "dirac.json", "--depth", "6"),
        ("cantor", "--config", CORPUS / "cantor3.json", "--tol", "0.1"),
        ("dimension", "--config", CORPUS / "cantor3.json", "--tol", "0.1"),
    ], ids=["radial-tol", "velocity-depth", "cantor-tol", "dimension-tol"])
    def test_unread_flag_rejected(self, tmp_path, argv):
        out = tmp_path / "out"
        r = run_cli(*argv, "--out-dir", out)
        assert r.returncode == 2
        assert argv[-2] in r.stderr
        assert not out.exists()

    def test_dimension_table_scenario(self, tmp_path):
        r = run_cli("repro", "dimension-table", "--out-dir", tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / "repro_dimension_table.json").read_text())
        assert doc["passed"] is True

    def test_velocity_consistency_scenario(self, tmp_path):
        r = run_cli("repro", "velocity-consistency", "--out-dir", tmp_path)
        assert r.returncode == 0
        doc = json.loads((tmp_path / "repro_velocity_consistency.json").read_text())
        assert doc["passed"] is True


# ---------------------------------------------------------------------------
# Key tables: every document and --config file is read against one


def _write_doc(tmp_path, doc, name="doc.json") -> pathlib.Path:
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def _rejected(capsys, tmp_path, argv) -> str:
    """Run the CLI in-process; it must exit 1 with one BadParams line and
    write nothing (any other exception fails the test with its traceback)."""
    out = tmp_path / "out"
    code = cli.main([str(a) for a in argv] + ["--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: BadParams: ") and err.count("\n") == 1, err
    assert not out.exists()
    return err.rstrip("\n")


_UNIFORM = {"kind": "uniform", "params": {"lo": 0, "hi": 1, "mass": 1}}
_BLOCK = {"a": 0, "log_d": -1, "log_h": 1}
_CANTOR_KEYS = "kind, family, K, beta, depth"
_QUADRATURE_KEYS = "depth_schedule, divergence_budget, agreement_tol"
_DENSITY = ("energy", "--engine", "density", "--measure")
_PLANAR = ("energy", "--engine", "planar", "--measure")

# (id, argv before the measure file, document, misspelt key, accepted keys)
_MEASURE_KEY_CASES = [
    ("uniform", ("energy", "--measure"),
     {"kind": "uniform", "params": {"low": 0.2, "hi": 1}}, "low", "lo, hi, mass"),
    ("power_law", ("classify", "--measure"),
     {"kind": "power_law", "params": {"c": 1, "Alpha": 0.5}}, "Alpha", "c, alpha, R"),
    ("step_density", _DENSITY,
     {"kind": "step_density", "params": {"blocks": [_BLOCK], "block": []}}, "block", "blocks"),
    ("step_density-block", _DENSITY,
     {"kind": "step_density", "params": {"blocks": [dict(_BLOCK, log_w=0)]}}, "log_w",
     "a, log_d, log_h, log_d_lo, log_h_lo"),
    ("cantor", ("classify", "--measure"),
     {"kind": "cantor", "family": "general", "Beta": 3, "depth": 20}, "Beta", _CANTOR_KEYS),
    ("table", ("classify", "--measure"),
     {"kind": "table", "params": {"points": [[0, 1]], "pts": []}}, "pts", "points"),
    ("envelope", ("classify", "--measure"),
     {"kind": "uniform", "parms": {"lo": 0.5}}, "parms", "kind, params"),
    ("circle", _PLANAR, {"kind": "circle", "params": {"N": 1024}}, "N", "n"),
    ("dirac", ("radial", "--measure"),
     {"kind": "dirac", "params": {"pt": [0.5, 0]}}, "pt", "point, mass"),
    ("line", _PLANAR, {"kind": "line", "params": {"cdf": _UNIFORM, "N": 8}}, "N", "cdf, n"),
    ("planar_points", ("velocity", "--measure"),
     {"kind": "planar_points", "params": {"points": [[0, 0, 1]], "weights": [1]}},
     "weights", "points"),
]

# (id, argv before --config, --config document, misspelt key, accepted keys)
_CONFIG_KEY_CASES = [
    ("energy", ("energy", "--measure", CORPUS / "uniform.json"),
     {"agreement_tolerance": 0.5}, "agreement_tolerance", _QUADRATURE_KEYS),
    ("energy-density", _DENSITY + (CORPUS / "step_divergent.json",),
     {"agreement_tol": 0.5}, "agreement_tol", "divergence_budget"),
    ("energy-planar", _PLANAR + (CORPUS / "circle64.json",),
     {"agreement_tol": 0.5, "bogus": 1}, "agreement_tol", "none"),
    ("classify", ("classify", "--measure", CORPUS / "uniform.json"),
     {"budget": 5}, "budget", _QUADRATURE_KEYS),
    ("cantor", ("cantor",), {"kind": "cantor", "k": 3}, "k", _CANTOR_KEYS),
    ("radial", ("radial", "--measure", CORPUS / "circle64.json"),
     {"centre": [0.5, 0.0]}, "centre", "center, pushforward"),
    ("velocity", ("velocity", "--measure", CORPUS / "dirac.json"),
     {"grid": {"NX": 40}, "r_outer": 0.5}, "r_outer", "grid, center, r_out, r_in"),
    ("velocity-grid", ("velocity", "--measure", CORPUS / "dirac.json"),
     {"grid": {"NX": 40}}, "NX", "lo_x, lo_y, hi_x, hi_y, nx, ny"),
    ("dimension", ("dimension",),
     {"kind": "cantor", "fits": {}}, "fits", _CANTOR_KEYS + ", fit"),
    ("dimension-fit", ("dimension",),
     {"kind": "cantor", "fit": {"nmax": 8}}, "nmax", "n_min, n_max"),
]


class TestKeyTables:
    @pytest.mark.parametrize("argv,doc,key,accepted",
                             [c[1:] for c in _MEASURE_KEY_CASES],
                             ids=[c[0] for c in _MEASURE_KEY_CASES])
    def test_unknown_measure_key(self, capsys, tmp_path, argv, doc, key, accepted):
        err = _rejected(capsys, tmp_path, argv + (_write_doc(tmp_path, doc),))
        assert "unknown" in err and repr(key) in err
        assert err.endswith(f"accepted keys: {accepted}")

    @pytest.mark.parametrize("argv,doc,key,accepted",
                             [c[1:] for c in _CONFIG_KEY_CASES],
                             ids=[c[0] for c in _CONFIG_KEY_CASES])
    def test_unknown_config_key(self, capsys, tmp_path, argv, doc, key, accepted):
        err = _rejected(capsys, tmp_path, argv + ("--config", _write_doc(tmp_path, doc)))
        assert "unknown" in err and repr(key) in err
        assert err.endswith(f"accepted keys: {accepted}")

    @pytest.mark.parametrize("argv,doc,key", [
        (_PLANAR, {"kind": "circle", "params": {"n": "abc"}}, "n"),
        (_PLANAR, '{"kind": "circle", "params": {"n": Infinity}}', "n"),
        (_DENSITY, {"kind": "step_density", "params": {"blocks": [{"a": 0, "log_d": -1}]}},
         "log_h"),
        (_DENSITY, {"kind": "step_density", "params": {"blocks": []}}, "blocks"),
        (("classify", "--measure"), {"kind": "uniform", "params": {"hi": "one"}}, "hi"),
        (("classify", "--measure"), {"kind": "table", "params": {"points": [[0, 1, 2]]}},
         "points"),
        (("classify", "--measure"), {"kind": "cantor", "family": "gen"}, "family"),
        (("classify", "--measure"), {"kind": "uniform", "params": [0, 1]}, "uniform"),
        (("radial", "--measure"), {"kind": "dirac", "params": {"point": [0, 0, 1]}}, "point"),
        (_PLANAR, {"kind": "planar_points", "params": {"points": []}}, "points"),
    ], ids=["circle-n-string", "circle-n-infinite", "block-without-log_h", "no-blocks",
            "uniform-hi-string", "table-row-of-three", "cantor-family", "params-not-object",
            "dirac-point-of-three", "no-points"])
    def test_malformed_measure_value(self, capsys, tmp_path, argv, doc, key):
        err = _rejected(capsys, tmp_path, argv + (_write_doc(tmp_path, doc),))
        assert repr(key) in err or f"{key} must be" in err
        assert "accepted keys: " in err

    @pytest.mark.parametrize("argv,doc,key", [
        (("velocity", "--measure", CORPUS / "dirac.json"), {"center": 1}, "center"),
        (("radial", "--measure", CORPUS / "dirac.json"), {"center": 1}, "center"),
        (("radial", "--measure", CORPUS / "dirac.json"), {"pushforward": "r^2"},
         "pushforward"),
        (("velocity", "--measure", CORPUS / "dirac.json"), {"grid": {"nx": "many"}}, "nx"),
        (("energy", "--measure", CORPUS / "uniform.json"), {"depth_schedule": 5},
         "depth_schedule"),
        (("cantor",), {"kind": "uniform"}, "kind"),
        (("dimension",), {"kind": "cantor", "fit": {"n_min": "x"}}, "n_min"),
    ], ids=["velocity-center", "radial-center", "pushforward-string", "grid-nx-string",
            "schedule-number", "cantor-kind", "fit-n_min-string"])
    def test_malformed_config_value(self, capsys, tmp_path, argv, doc, key):
        err = _rejected(capsys, tmp_path, argv + ("--config", _write_doc(tmp_path, doc)))
        assert repr(key) in err and "accepted keys: " in err

    @pytest.mark.parametrize("argv,doc,key", [
        (_PLANAR, {"kind": "circle", "params": {"n": 64.9}}, "n"),
        (_PLANAR, {"kind": "line", "params": {"cdf": _UNIFORM, "n": 8.5}}, "n"),
        (("classify", "--measure"), {"kind": "cantor", "depth": 12.5}, "depth"),
    ], ids=["circle-n", "line-n", "cantor-depth"])
    def test_fractional_integer_in_measure(self, capsys, tmp_path, argv, doc, key):
        # int() would truncate these silently (circle n 64.9 ran on 64 atoms)
        err = _rejected(capsys, tmp_path, argv + (_write_doc(tmp_path, doc),))
        assert f"key {key!r}: expected an integer" in err

    @pytest.mark.parametrize("argv,doc,key", [
        (("energy", "--measure", CORPUS / "uniform.json"), {"depth_schedule": [16, 32.5]},
         "depth_schedule"),
        (("velocity", "--measure", CORPUS / "dirac.json"), {"grid": {"ny": 4.5}}, "ny"),
        (("dimension",), {"kind": "cantor", "fit": {"n_max": 8.25}}, "n_max"),
        (("cantor",), {"kind": "cantor", "depth": 6.5}, "depth"),
    ], ids=["schedule-entry", "grid-ny", "fit-n_max", "cantor-depth"])
    def test_fractional_integer_in_config(self, capsys, tmp_path, argv, doc, key):
        err = _rejected(capsys, tmp_path, argv + ("--config", _write_doc(tmp_path, doc)))
        assert f"key {key!r}: expected an integer" in err

    def test_cantor_and_dimension_need_config(self, capsys, tmp_path):
        for command in ("cantor", "dimension"):
            assert "'kind'" in _rejected(capsys, tmp_path, (command,))


class TestEngineSettings:
    """The planar engine reads no quadrature setting and the density engine
    only divergence_budget; any other setting exits 1."""

    @staticmethod
    def _argv(tmp_path, engine_argv, flags, config):
        if config is not None:
            flags += ("--config", _write_doc(tmp_path, config, "cfg.json"))
        return engine_argv + flags

    @pytest.mark.parametrize("flags,config", [
        (("--depth", 5), None), (("--tol", 0.9), None), ((), {"agreement_tol": 0.5}),
        (("--depth", 5, "--tol", 0.9), {"agreement_tol": 0.5, "bogus": 1}),
    ], ids=["depth", "tol", "config-key", "all"])
    def test_planar_takes_no_setting(self, capsys, tmp_path, flags, config):
        engine_argv = _PLANAR + (CORPUS / "circle64.json",)
        _rejected(capsys, tmp_path, self._argv(tmp_path, engine_argv, flags, config))

    @pytest.mark.parametrize("flags,config", [
        (("--depth", 6), None), (("--tol", 0.1), None),
        ((), {"agreement_tol": 0.5}), ((), {"depth_schedule": [16, 32]}),
    ], ids=["depth", "tol", "tol-key", "schedule-key"])
    def test_density_takes_only_the_budget(self, capsys, tmp_path, flags, config):
        engine_argv = _DENSITY + (CORPUS / "step_divergent.json",)
        _rejected(capsys, tmp_path, self._argv(tmp_path, engine_argv, flags, config))

    @pytest.mark.parametrize("argv,flags,config,key", [
        (("classify",), ("--tol", "nan"), None, "agreement_tol"),
        (("energy",), ("--tol", "inf"), None, "agreement_tol"),
        (("classify",), (), {"agreement_tol": "nan"}, "agreement_tol"),
        (("energy",), (), {"agreement_tol": "inf"}, "agreement_tol"),
        (("energy",), (), {"divergence_budget": "nan"}, "divergence_budget"),
        (("classify",), (), {"divergence_budget": "inf"}, "divergence_budget"),
    ], ids=["tol-nan", "tol-inf", "config-tol-nan", "config-tol-inf", "config-budget-nan",
            "config-budget-inf"])
    def test_non_finite_setting_rejected(self, capsys, tmp_path, argv, flags, config, key):
        # a NaN tolerance ran the whole ladder; an infinite one converged at n = 16
        engine_argv = argv + ("--measure", CORPUS / "uniform.json")
        err = _rejected(capsys, tmp_path, self._argv(tmp_path, engine_argv, flags, config))
        assert f"{key} must be positive and finite" in err

    def test_density_reads_the_budget(self, tmp_path):
        # one block of height e on [0, 1/e]: energy 2.5, so a budget of 1
        # makes the exact block sum certify divergence
        m = _write_doc(tmp_path, {"kind": "step_density", "params": {"blocks": [_BLOCK]}})
        verdicts = []
        for budget in (None, 1.0):
            out = tmp_path / f"out{budget}"
            argv = [*_DENSITY, m, "--out-dir", out]
            if budget is not None:
                argv += ["--config", _write_doc(tmp_path, {"divergence_budget": budget}, "b.json")]
            assert cli.main([str(a) for a in argv]) == 0
            verdicts.append(json.loads((out / "energy.json").read_text())["estimate"]["verdict"])
        assert verdicts == ["FiniteConverged", "Divergent"]


class TestSharedParser:
    """``main`` builds its parser once per process; calls share no state."""

    def test_parser_built_once_and_calls_independent(self, monkeypatch, tmp_path):
        build_parser, built = cli.build_parser, []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        levels = []
        for k, depth in enumerate((5, None, 4, None)):
            out = tmp_path / str(k)
            argv = ["cantor", "--config", str(CORPUS / "cantor3.json"), "--out-dir", str(out)]
            if depth is not None:
                argv += ["--depth", str(depth)]
            assert cli.main(argv) == 0
            levels.append(json.loads((out / "cantor.json").read_text())["level"])
            with pytest.raises(SystemExit):  # a rejected command line in between
                cli.main(["cantor", "--depth", "x"])
        # cantor3.json has depth 30, so a call without --depth runs level 10
        assert levels == [5, 10, 4, 10]
        assert len(built) == 1
