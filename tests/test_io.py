"""Deterministic serialization: JSON documents and CSV tables."""
import json
import math
import pathlib

import numpy as np
import pytest

from logmeasure import (
    BadParams,
    Block,
    StepDensity,
    l1_divergent_blocks,
    power_law_cdf,
    scale_cdf,
    table_cdf,
    uniform_cdf,
)
from logmeasure import io as lio
from logmeasure.fractal import (
    cantor_cdf,
    cantor_intervals,
    general_ratio_spec,
    standard_cantor_spec,
)
from logmeasure.planar import (
    GridSpec,
    biot_savart,
    circle_measure,
    dirac_at,
    line_measure,
    planar_measure,
)

from oracles import (
    fmt_reference,
    intervals_csv_reference,
    trace_csv_reference,
    velocity_csv_reference,
)

CORPUS = pathlib.Path(__file__).parent / "corpus"


def _lines(text: str) -> list:
    """The text's lines with their endings: equal lists mean equal texts, and
    pytest reports the first differing line of a large CSV quickly."""
    return text.splitlines(keepends=True)


class TestDumps:
    def test_field_order_and_float_format(self):
        s = lio.dumps({"b": 1.0 / 3.0, "a": 2})
        # insertion order is preserved; floats carry 17 significant digits
        assert s.index('"b"') < s.index('"a"')
        assert "0.33333333333333331" in s
        assert s.endswith("\n")

    def test_seventeen_digits_round_trip(self):
        for x in (1.0 / 3.0, math.pi, 0.1, 2.0**-52, 1e300, -1234.5678e-9):
            doc = json.loads(lio.dumps({"x": x}))
            assert float(doc["x"]) == x

    def test_nonfinite_as_strings(self):
        s = lio.dumps({"v": math.inf, "w": -math.inf, "n": math.nan, "m": -math.nan,
                       "x": 1.5})
        assert '"v": "inf"' in s
        assert '"w": "-inf"' in s
        assert '"n": "nan"' in s
        assert '"m": "nan"' in s

    def test_numpy_values(self):
        s = lio.dumps({"a": np.float64(0.5), "b": np.int64(3),
                       "c": np.array([1.0, 2.0])})
        doc = json.loads(s)
        assert doc == {"a": 0.5, "b": 3, "c": [1.0, 2.0]}

    def test_deterministic_bytes(self):
        doc = {"z": [1.5, math.inf], "a": {"nested": 0.1}}
        assert lio.dumps(doc) == lio.dumps(doc)


class TestMeasureRoundTrips:
    @pytest.mark.parametrize("make", [
        lambda: uniform_cdf(0.0, 1.0, 1.0),
        lambda: uniform_cdf(-2.0, 3.0, 0.7),
        lambda: power_law_cdf(1.0, 0.5, 1.0),
        lambda: power_law_cdf(2.0, 0.25, 4.0),
        lambda: cantor_cdf(standard_cantor_spec(3.0)),
        lambda: cantor_cdf(general_ratio_spec(2.0)),
        lambda: table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0]),
    ])
    def test_cdf_round_trip_exact(self, make):
        F = make()
        doc = json.loads(lio.dumps(lio.measure_to_json(F)))
        G = lio.measure_from_json(doc)
        xs = np.linspace(F.support_lo - 0.5, F.support_hi + 0.5, 257)
        np.testing.assert_array_equal(F(xs), G(xs))
        # a second serialization is byte-identical
        assert lio.dumps(lio.measure_to_json(G)) == lio.dumps(lio.measure_to_json(F))

    def test_step_density_round_trip_exact(self):
        f = l1_divergent_blocks(50)
        doc = json.loads(lio.dumps(lio.measure_to_json(f)))
        g = lio.measure_from_json(doc)
        assert isinstance(g, StepDensity)
        assert len(g.blocks) == 50
        for a, b in zip(f.blocks, g.blocks):
            assert (a.a, a.d_log, a.h_log, a.d_log_lo, a.h_log_lo) == \
                   (b.a, b.d_log, b.h_log, b.d_log_lo, b.h_log_lo)

    def test_wrapped_cdfs_rejected(self):
        with pytest.raises(BadParams):
            lio.measure_to_json(scale_cdf(uniform_cdf(0.0, 1.0, 1.0), 2.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadParams):
            lio.measure_from_json({"kind": "mystery", "params": {}})

    def test_nonfinite_params_accepted_as_strings(self):
        # documents written by dumps encode inf as a string; the reader
        # must accept it back
        doc = {"kind": "step_density", "params": {"blocks": [
            {"a": 0.0, "log_d": 0.0, "log_h": 0.0,
             "log_d_lo": 0.0, "log_h_lo": 0.0}]}}
        f = lio.measure_from_json(doc)
        assert isinstance(f, StepDensity)


class TestWritersUseKeyTables:
    """Each writer emits its kind's keys in the order of the table the
    reader reads them with."""

    @pytest.mark.parametrize("doc", [
        lio.measure_to_json(uniform_cdf(0.0, 1.0, 1.0)),
        lio.measure_to_json(power_law_cdf(1.0, 0.5, 1.0)),
        lio.measure_to_json(l1_divergent_blocks(2)),
        lio.measure_to_json(table_cdf([0.0, 1.0], [0.5, 1.0])),
        lio.planar_to_json(circle_measure(8)),
        lio.planar_to_json(dirac_at((0.25, -0.5), 2.0)),
        lio.planar_to_json(line_measure(uniform_cdf(0.0, 1.0, 1.0), 8)),
        lio.planar_to_json(planar_measure([[0.0, 0.0]], [1.0])),
    ], ids=lambda doc: doc["kind"])
    def test_params_keys(self, doc):
        table = {**lio.LINE_KEYS, **lio.PLANAR_KEYS}[doc["kind"]]
        assert list(doc) == ["kind", "params"]
        assert list(doc["params"]) == list(table)
        if doc["kind"] == "step_density":
            assert all(list(b) == list(lio.BLOCK_KEYS) for b in doc["params"]["blocks"])

    def test_cantor_keys(self):
        for spec in (standard_cantor_spec(3.0), general_ratio_spec(2.0)):
            assert list(lio.cantor_spec_to_json(spec)) == list(lio.CANTOR_KEYS)


class TestCantorSpecDocs:
    def test_standard_round_trip(self):
        spec = standard_cantor_spec(3.0, depth=12)
        doc = json.loads(lio.dumps(lio.cantor_spec_to_json(spec)))
        back = lio.cantor_spec_from_json(doc)
        assert back.depth == 12
        assert back.d_log(5) == spec.d_log(5)

    def test_general_round_trip(self):
        spec = general_ratio_spec(2.0, depth=20)
        doc = json.loads(lio.dumps(lio.cantor_spec_to_json(spec)))
        back = lio.cantor_spec_from_json(doc)
        assert back.d_log(7) == spec.d_log(7)


class TestPlanarDocs:
    @pytest.mark.parametrize("make", [
        lambda: circle_measure(16),
        lambda: dirac_at((0.25, -0.5), 2.0),
        lambda: line_measure(uniform_cdf(0.0, 1.0, 1.0), 8),
        lambda: planar_measure([[0.0, 0.0], [1.0, 0.5]], [0.25, 0.75]),
    ])
    def test_round_trip_exact(self, make):
        P = make()
        doc = json.loads(lio.dumps(lio.planar_to_json(P)))
        Q = lio.planar_from_json(doc)
        np.testing.assert_array_equal(P.points, Q.points)
        np.testing.assert_array_equal(P.weights, Q.weights)

    def test_integral_float_reads_as_an_integer(self):
        assert lio.planar_from_json({"kind": "circle", "params": {"n": 8.0}}).n_atoms == 8

    @pytest.mark.parametrize("n", [8.5, True, "8", "inf"])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(BadParams, match="key 'n': expected an integer"):
            lio.planar_from_json({"kind": "circle", "params": {"n": n}})


class TestReportDocs:
    def test_energy_estimate_doc(self):
        from logmeasure import energy_planar

        est = energy_planar(dirac_at((0.0, 0.0), 1.0))
        doc = est.as_dict()
        s = lio.dumps(doc)
        assert '"verdict": "Divergent"' in s
        assert '"value": "inf"' in s

    def test_membership_doc(self):
        from logmeasure import classify_membership

        doc = classify_membership(uniform_cdf(0.0, 1.0, 1.0)).as_dict()
        assert doc["verdict"] == "MemberCertified"
        assert doc["rule"] == "Lipschitz"

    def test_holder_fit_doc(self):
        from logmeasure import fit_holder

        doc = fit_holder(power_law_cdf(1.0, 0.5, 1.0), 4, 16).as_dict()
        assert doc["alpha"] == pytest.approx(0.5)


class TestCSV:
    def test_trace_csv(self):
        out = lio.trace_csv(((16, 1.25, 1.75), (32, 1.375, 1.625)))
        assert out == "n,lower,upper\n16,1.25,1.75\n32,1.375,1.625\n"

    def test_intervals_csv(self):
        ints = cantor_intervals(standard_cantor_spec(3.0), 1)
        assert lio.intervals_csv(ints) == (
            "level,index,lo,width_log\n"
            "1,0,0,-1.0986122886681098\n"
            "1,1,0.66666666666666674,-1.0986122886681098\n")

    def test_velocity_csv(self):
        field = biot_savart(dirac_at((0.0, 0.0)), GridSpec(0.5, -0.5, 1.5, 0.5, 1, 1))
        out = lio.velocity_csv(field)
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,ux,uy"
        assert len(lines) == 2

    def test_table_csv_formats(self):
        out = lio.table_csv(["a", "b", "c"], [[1, 0.5, True], [2, math.inf, False]])
        assert out == "a,b,c\n1,0.5,true\n2,inf,false\n"


class TestCSVMatchesReference:
    """The block-row writers print exactly what the row-at-a-time reference
    writers print.  Level 12 is one full 4096-row block; level 13 two."""

    @pytest.mark.parametrize("level", [0, 1, 11, 12, 13])
    @pytest.mark.parametrize("spec", [
        standard_cantor_spec(2.5), standard_cantor_spec(3.0), standard_cantor_spec(9.0),
        general_ratio_spec(1.5), general_ratio_spec(2.0), general_ratio_spec(3.0),
    ], ids=["K2.5", "K3", "K9", "beta1.5", "beta2", "beta3"])
    def test_intervals(self, spec, level):
        ints = cantor_intervals(spec, level)
        assert _lines(lio.intervals_csv(ints)) == _lines(intervals_csv_reference(ints))

    @pytest.mark.parametrize("nx,ny", [(37, 29), (70, 70)])
    def test_velocity_with_special_values(self, nx, ny):
        field = biot_savart(dirac_at((0.1, -0.2)), GridSpec(-1.0, -1.5, 2.0, 1.0, nx, ny))
        field.values[0, 0] = (math.nan, -math.inf)
        field.values[ny // 2, nx - 1] = (-0.0, 5e-324)
        field.values[ny - 1, nx - 1] = (math.inf, -1e308)
        out = lio.velocity_csv(field)
        assert _lines(out) == _lines(velocity_csv_reference(field))
        assert out.count("\n") == nx * ny + 1

    def test_trace_with_infinite_bounds(self):
        trace = ((16, 0.5, math.inf), (32, 0.75, math.inf), (64, -math.inf, 1.25))
        out = lio.trace_csv(trace)
        assert out == trace_csv_reference(trace)
        assert out == "n,lower,upper\n16,0.5,inf\n32,0.75,inf\n64,-inf,1.25\n"

    def test_empty_trace_is_header_only(self):
        assert lio.trace_csv(()) == trace_csv_reference(()) == "n,lower,upper\n"

    @pytest.mark.parametrize("x", [
        math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308,
        np.float32(0.1), 1.0 / 3.0])
    def test_fmt(self, x):
        assert lio._fmt(x) == fmt_reference(x)


class TestCannedCorpus:
    """The checked-in corpus files are exactly what the library emits."""

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.name)
    def test_corpus_file_round_trips(self, path):
        text = path.read_text()
        doc = json.loads(text)
        if doc["kind"] in ("circle", "dirac", "line", "planar_points"):
            back = lio.planar_to_json(lio.planar_from_json(doc))
        else:
            back = lio.measure_to_json(lio.measure_from_json(doc))
        assert lio.dumps(back) == text

    @pytest.mark.parametrize("name,builder", [
        ("uniform.json", lambda: lio.measure_to_json(uniform_cdf(0.0, 1.0, 1.0))),
        ("step_divergent.json", lambda: lio.measure_to_json(l1_divergent_blocks(50))),
        ("cantor3.json",
         lambda: lio.measure_to_json(cantor_cdf(standard_cantor_spec(3.0)))),
        ("table_with_atom.json",
         lambda: lio.measure_to_json(table_cdf([0.0, 0.5, 1.0], [0.2, 0.7, 1.0]))),
        ("power_half.json", lambda: lio.measure_to_json(power_law_cdf(1.0, 0.5, 1.0))),
        ("circle64.json", lambda: lio.planar_to_json(circle_measure(64))),
        ("dirac.json", lambda: lio.planar_to_json(dirac_at((0.25, 0.0), 1.0))),
    ])
    def test_corpus_file_is_fresh(self, name, builder):
        on_disk = (CORPUS / name).read_text()
        assert on_disk == lio.dumps(builder())
