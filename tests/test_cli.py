"""End-to-end CLI contract: subcommands, exit codes, deterministic output."""
import json
import math
import pathlib
import subprocess
import sys

import pytest

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
        assert abs(doc["estimate"]["value"] - 1.500122566388095) < 1e-12
        assert doc["estimate"]["stop_reason"] == "agreement"
        assert doc["estimate"]["upper_kind"] == "modulus"
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "n,lower,upper"
        assert len(trace) >= 3

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
