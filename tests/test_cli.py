import errno
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_pwc
import qcvx
from qcvx import function_to_dict
from qcvx import cli
from qcvx.cli import main

F = Fraction


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def read_json(text):
    return json.loads(text)


@pytest.fixture()
def tent_file(tmp_path):
    path = tmp_path / "tent.json"
    code = main(["corpus", "tent", "--out", str(path)])
    assert code == 0
    return path


class TestCorpusCommand:
    def test_tent_document(self, tmp_path, capsys):
        path = tmp_path / "tent.json"
        code, out, _ = run(["corpus", "tent", "--out", str(path)], capsys)
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["knots"] == [["0", "0"], ["1/2", "1"], ["1", "0"]]

    def test_cantor_document_compact(self, tmp_path, capsys):
        path = tmp_path / "c6.json"
        code, _, _ = run(
            ["corpus", "cantor", "--depth", "6", "--mode", "complement", "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert json.loads(path.read_text()) == {
            "type": "cantor",
            "depth": 6,
            "mode": "complement",
        }

    def test_random_pl_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["corpus", "random-pl", "--knots", "8", "--seed", "42", "--out", str(p1)], capsys)
        run(["corpus", "random-pl", "--knots", "8", "--seed", "42", "--out", str(p2)], capsys)
        assert p1.read_text() == p2.read_text()

    def test_unknown_name(self, capsys):
        code, _, err = run(["corpus", "bogus"], capsys)
        assert code == 1
        assert "unknown corpus name" in err

    def test_random_pl_knot_count_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        code, out, err = run(
            ["corpus", "random-pl", "--knots", "3000", "--seed", "1", "--out", str(path)],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == "error: knot count must be in [2, 2521], got 3000\n"
        assert not path.exists()

    def test_cantor_requires_parameters(self, capsys):
        code, _, err = run(["corpus", "cantor"], capsys)
        assert code == 1

    @pytest.fixture()
    def no_cantor_model(self, monkeypatch):
        # The compact document needs only the checked parameters; building
        # the model would cost time and memory doubling with each depth.
        def fail(depth):
            raise AssertionError("the corpus command generated the model")

        monkeypatch.setattr(qcvx.functions, "_cantor_components", fail)

    def test_cantor_document_without_generating(self, no_cantor_model, tmp_path, capsys):
        path = tmp_path / "c20.json"
        code, out, err = run(
            ["corpus", "cantor", "--depth", "20", "--mode", "set", "--out", str(path)], capsys
        )
        assert (code, out, err) == (0, f"{path}\n", "")
        assert json.loads(path.read_text()) == {"type": "cantor", "depth": 20, "mode": "set"}

    @pytest.mark.parametrize("depth", ["21", "0"])
    def test_cantor_depth_out_of_range(self, no_cantor_model, depth, tmp_path, capsys):
        path = tmp_path / "c.json"
        code, out, err = run(
            ["corpus", "cantor", "--depth", depth, "--mode", "set", "--out", str(path)], capsys
        )
        assert (code, out) == (1, "")
        assert err == f"error: depth must be an integer in [1, 20], got {depth}\n"
        assert not path.exists()


class TestAnalyzeCommand:
    def test_tent_report(self, tent_file, capsys):
        code, out, _ = run(
            ["analyze", str(tent_file), "--all-breakpoint-pairs", "--no-timestamp"], capsys
        )
        assert code == 0
        report = read_json(out)
        assert report["quasiconvexity"]["is_quasiconvex"] is False
        full = [p for p in report["pairs"] if (p["x"], p["y"]) == ("0", "1")]
        assert full[0]["components"] == [{"u": "0", "v": "1"}]
        assert full[0]["all_checks_passed"] is True
        assert full[0]["chord_violations"] == [{"u": "0", "v": "1"}]
        assert list(report["config"]) == ["grid_points", "float_epsilon"]  # no "jobs"

    def test_monotone_all_pairs_empty(self, tmp_path, capsys):
        path = tmp_path / "monotone.json"
        run(["corpus", "monotone", "--out", str(path)], capsys)
        code, out, _ = run(
            ["analyze", str(path), "--all-breakpoint-pairs", "--no-timestamp"], capsys
        )
        report = read_json(out)
        assert report["quasiconvexity"]["is_quasiconvex"] is True
        assert all(p["component_count"] == 0 for p in report["pairs"])

    def cantor_complement(self, tmp_path, capsys, depth):
        path = tmp_path / "cantor.json"
        run(["corpus", "cantor", "--depth", str(depth), "--mode", "complement", "--out", str(path)], capsys)
        return str(path)

    def test_all_pairs_over_budget_exit_1(self, tmp_path, capsys, monkeypatch):
        # Depth 8 puts C(512, 3) = 22,238,720 breakpoints inside its pairs:
        # refused before any pair is analyzed.
        def unreachable(f, pairs):
            raise AssertionError("a pair was analyzed")

        monkeypatch.setattr(cli, "_pair_walks", unreachable)
        path = self.cantor_complement(tmp_path, capsys, 8)
        code, out, err = run(["analyze", path, "--all-breakpoint-pairs", "--no-timestamp"], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: --all-breakpoint-pairs on 512 breakpoints puts 22238720 "
            "breakpoints inside its pairs, over the limit of 2763520\n"
        )

    def test_with_oracle_over_budget_exit_1(self, tmp_path, capsys, monkeypatch):
        # The oracle runs before the pairs, so its grid is refused before
        # any pair is analyzed.
        def unreachable(f, pairs):
            raise AssertionError("a pair was analyzed")

        monkeypatch.setattr(cli, "_pair_walks", unreachable)
        path = self.cantor_complement(tmp_path, capsys, 6)
        code, out, err = run(
            ["analyze", path, "--all-breakpoint-pairs", "--with-oracle", "--grid", "5000", "--no-timestamp"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == "error: oracle grid has 5253 points at resolution 5000, over the limit of 4096\n"

    def test_with_oracle_billion_point_grid_exit_1(self, tent_file, capsys, monkeypatch, point_budget):
        def unreachable(f, pairs):
            raise AssertionError("a pair was analyzed")

        monkeypatch.setattr(cli, "_pair_walks", unreachable)
        code, out, err = run(
            ["analyze", str(tent_file), "--with-oracle", "--grid", str(10**9), "--no-timestamp"], capsys
        )
        assert (code, out) == (1, "")
        assert err == "error: oracle grid has 1000000001 points at resolution 1000000000, over the limit of 4096\n"

    def test_with_oracle_embeds_the_oracle_report(self, tmp_path, capsys):
        path = tmp_path / "c3.json"
        run(["corpus", "cantor", "--depth", "3", "--mode", "set", "--out", str(path)], capsys)
        code, out, _ = run(
            ["analyze", str(path), "--all-breakpoint-pairs", "--with-oracle", "--grid", "61", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        report = read_json(out)
        assert list(report)[-2:] == ["local_maxima_hypothesis", "oracle"]
        code, out, _ = run(["oracle", str(path), "--grid", "61", "--no-timestamp"], capsys)
        assert code == 0
        assert report["oracle"] == read_json(out)["oracle"]
        assert report["oracle"]["is_quasiconvex_on_grid"] is False

    def test_infinite_threshold_has_no_chord(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(
            '{"type": "piecewise_constant", "breaks": ["0", "1/2", "1"], '
            '"piece_values": ["0", "1"], "point_values": ["0", "0", "inf"]}'
        )
        code, out, _ = run(["analyze", str(path), "--pair", "0", "1", "--no-timestamp"], capsys)
        assert code == 0
        (pair,) = read_json(out)["pairs"]
        assert (pair["threshold"], pair["threshold_decimal"]) == ("inf", "inf")
        assert pair["chord_violations"] is None
        assert "chord_violations_total_length" not in pair

    def test_component_check_reports_its_failing_point(self, tmp_path, capsys):
        # The depth-3 Cantor set indicator is 0 at 2/5 and 4/5 and 1 on
        # the closed intervals [2/3, 19/27] and [20/27, 7/9] between them,
        # so each open component has an end above the threshold 0.
        path = tmp_path / "c3.json"
        run(["corpus", "cantor", "--depth", "3", "--mode", "set", "--out", str(path)], capsys)
        code, out, _ = run(
            ["analyze", str(path), "--pair", "2/5", "4/5", "--no-timestamp"], capsys
        )
        assert code == 0
        (pair,) = read_json(out)["pairs"]
        assert pair["components"] == [{"u": "2/3", "v": "19/27"}, {"u": "20/27", "v": "7/9"}]
        assert pair["component_checks"][0] == {
            "endpoints_outside": False,
            "interior_strict": True,
            "failing_point": "2/3",
        }
        assert pair["all_checks_passed"] is False

    def test_all_pairs_within_budget(self, tmp_path, capsys, monkeypatch):
        # Depth 7 puts C(256, 3) = 2,763,520 breakpoints inside its pairs,
        # the limit.
        analyzed = []
        monkeypatch.setattr(cli, "pair_records", lambda f, pairs: analyzed.extend(pairs) or [])
        path = self.cantor_complement(tmp_path, capsys, 7)
        code, _, err = run(["analyze", path, "--all-breakpoint-pairs", "--no-timestamp"], capsys)
        assert (code, err, len(analyzed)) == (0, "", 32640)

    def test_cantor6_pair_component_count(self, tmp_path, capsys):
        path = tmp_path / "c6.json"
        run(["corpus", "cantor", "--depth", "6", "--mode", "complement", "--out", str(path)], capsys)
        code, out, _ = run(
            ["analyze", str(path), "--pair", "0", "1", "--no-timestamp"], capsys
        )
        assert code == 0
        report = read_json(out)
        assert report["pairs"][0]["component_count"] == 63
        assert report["pairs"][0]["total_length"] == "665/729"

    def test_deterministic_reports(self, tent_file, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(["analyze", str(tent_file), "--no-timestamp", "--out", str(out1)], capsys)
        run(["analyze", str(tent_file), "--no-timestamp", "--out", str(out2)], capsys)
        assert out1.read_bytes() == out2.read_bytes()

    def test_timestamp_present_by_default(self, tent_file, capsys):
        code, out, _ = run(["analyze", str(tent_file)], capsys)
        assert "generated_at" in read_json(out)

    def test_fail_on_violation(self, tent_file, capsys):
        code, _, _ = run(
            ["analyze", str(tent_file), "--fail-on-violation", "--no-timestamp"], capsys
        )
        assert code == 2

    def test_parse_error_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "piecewise_linear", "knots": [["0", "0"], ["zzz", "1"]]}')
        code, _, err = run(["analyze", str(path)], capsys)
        assert code == 1
        assert "knots[1]" in err

    @pytest.mark.parametrize(
        "doc,field",
        [
            ('{"type": "piecewise_constant", "breaks": "01", "piece_values": ["0"], "point_values": ["0", "0"]}', "breaks"),
            ('{"type": "cantor", "depth": true, "mode": "set"}', "depth"),
            ('{"type": "cantor", "depth": 3, "mode": "depth"}', "mode"),
        ],
    )
    def test_malformed_list_and_depth_exit_1(self, tmp_path, capsys, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, _, err = run(["analyze", str(path)], capsys)
        assert code == 1
        assert f"{field}:" in err

    def test_cantor_mode_names_its_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "cantor", "depth": 3, "mode": "depth"}')
        code, out, err = run(["analyze", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: invalid function document: mode: "
            "mode must be 'set' or 'complement', got 'depth'\n"
        )

    def test_missing_file(self, capsys):
        code, _, err = run(["analyze", "not-there.json"], capsys)
        assert code == 1

    def test_plot_points(self, tent_file, capsys):
        code, out, _ = run(
            ["analyze", str(tent_file), "--no-timestamp", "--plot-points", "5"], capsys
        )
        report = read_json(out)
        assert report["plot"]["samples"][2] == ["1/2", "1", 0.5, 1.0]

    @pytest.mark.parametrize("value", ["1", "-4"])
    def test_plot_points_rejected(self, tent_file, capsys, value):
        code, out, err = run(
            ["analyze", str(tent_file), "--no-timestamp", "--plot-points", value], capsys
        )
        assert code == 1 and out == ""
        assert "--plot-points" in err and "0 (off) or at least 2" in err

    def test_plot_points_over_the_limit_exit_1(self, tent_file, capsys, monkeypatch):
        # The limit is lowered, so the test never builds a large sample list.
        monkeypatch.setattr(cli, "MAX_PLOT_POINTS", 5)
        argv = ["analyze", str(tent_file), "--no-timestamp", "--plot-points"]
        code, out, err = run([*argv, "6"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: Invalid value for '--plot-points': must be at most 5, got 6\n"
        code, out, err = run([*argv, "5"], capsys)
        assert (code, err) == (0, "")
        assert len(read_json(out)["plot"]["samples"]) == 5

    @pytest.mark.parametrize(
        "f",
        [
            qcvx.generate_cantor(3, "set"),
            random_pwc(4, pieces=7, allow_infinite=True),
            qcvx.PiecewiseLinear(((F(-3, 7), F(2, 11)), (F(1, 13), F(-5, 3)), (F(9, 4), F(1, 9)))),
        ],
        ids=["cantor", "pwc", "linear"],
    )
    def test_plot_samples_match_point_evaluation(self, f):
        a, b = f.domain
        ts = [a + (b - a) * F(i, 40) for i in range(41)]
        expected = [
            [qcvx.format_rational(t), f.evaluate(t).to_string(), float(t), cli._decimal(f.evaluate(t))]
            for t in ts
        ]
        assert cli._plot_samples(f, 41) == expected

    def test_plot_points_zero_is_off(self, tent_file, capsys):
        code, out, _ = run(
            ["analyze", str(tent_file), "--no-timestamp", "--plot-points", "0"], capsys
        )
        assert code == 0 and "plot" not in read_json(out)

    def test_round_trip_corpus_files_analyze_cleanly(self, tmp_path, capsys):
        for name in ("tent", "vee", "ramp-plateau", "monotone", "monotone-concave", "constant"):
            path = tmp_path / f"{name}.json"
            run(["corpus", name, "--out", str(path)], capsys)
            code, out, _ = run(["analyze", str(path), "--no-timestamp"], capsys)
            assert code == 0
            report = read_json(out)
            assert report["semicontinuity"]["is_lsc"] is True


class TestCertifyCommand:
    def test_tent(self, tent_file, capsys):
        code, out, _ = run(
            ["certify", str(tent_file), "--interval", "0", "1", "--no-timestamp"], capsys
        )
        assert code == 0
        cert = read_json(out)["certificate"]
        assert cert["p"] == "1/2" and cert["q"] == "1/2"
        assert cert["revalidation"]["all_passed"] is True

    def test_cantor2_inner_interval(self, tmp_path, capsys):
        path = tmp_path / "c2.json"
        run(["corpus", "cantor", "--depth", "2", "--mode", "set", "--out", str(path)], capsys)
        code, out, _ = run(
            ["certify", str(path), "--interval", "2/5", "4/5", "--no-timestamp"], capsys
        )
        cert = read_json(out)["certificate"]
        assert (cert["p"], cert["q"]) == ("2/3", "7/9")
        assert cert["checks"] == {
            "values_equal": True,
            "both_local_maxima": True,
            "one_sided_strictness": True,
        }

    def test_vee_no_certificate(self, tmp_path, capsys):
        path = tmp_path / "vee.json"
        run(["corpus", "vee", "--out", str(path)], capsys)
        code, out, _ = run(
            ["certify", str(path), "--interval", "0", "1", "--no-timestamp"], capsys
        )
        assert code == 0
        report = read_json(out)
        assert report["certificate"] is None
        assert report["quasiconvex_on_interval"] is True

    @pytest.mark.parametrize("name", ["tent", "vee"])
    @pytest.mark.parametrize("grid", [str(qcvx.certificates.MAX_REVALIDATION_POINTS + 1), str(10**9)])
    def test_oversized_grid_exit_1(self, tmp_path, capsys, monkeypatch, point_budget, name, grid):
        # Refused while the options are read, before the model is analyzed,
        # whether or not it has a certificate (the tent has, the vee not).
        def unreachable(f, x0, y0):
            raise AssertionError("the interval was analyzed")

        monkeypatch.setattr(cli, "paired_maxima_certificate", unreachable)
        path = tmp_path / f"{name}.json"
        run(["corpus", name, "--out", str(path)], capsys)
        code, out, err = run(
            ["certify", str(path), "--interval", "0", "1", "--grid", grid, "--no-timestamp"], capsys
        )
        assert (code, out) == (1, "")
        assert err == f"error: Invalid value for '--grid': {grid} is not in the range 3<=x<=100000.\n"

    def test_usc_failure_exit_3(self, tmp_path, capsys):
        path = tmp_path / "c1c.json"
        run(["corpus", "cantor", "--depth", "1", "--mode", "complement", "--out", str(path)], capsys)
        code, _, err = run(
            ["certify", str(path), "--interval", "0", "1", "--no-timestamp"], capsys
        )
        assert code == 3
        assert "1/3" in err and "2/3" in err


class TestDecimalsBeyondDoubleRange:
    # Exact values past the double range get the decimal companion that
    # infinite values have; every exact string stays as it is.
    @pytest.fixture(params=[("1e400", "2e400", "inf"), ("-2e400", "-1e400", "-inf")], ids=["plus", "minus"])
    def huge(self, request, tmp_path):
        end, middle, decimal = request.param
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"type": "piecewise_linear", "knots": [["0", end], ["1/2", middle], ["1", end]]}
        ))
        return str(path), str(Fraction(middle)), decimal

    def test_certify(self, huge, capsys):
        path, middle, decimal = huge
        code, out, err = run(["certify", path, "--interval", "0", "1", "--no-timestamp"], capsys)
        assert (code, err) == (0, "")
        cert = read_json(out)["certificate"]
        assert (cert["sup_value"], cert["sup_value_decimal"]) == (middle, decimal)
        assert (cert["p_decimal"], cert["q_decimal"]) == (0.5, 0.5)

    def test_analyze_pair(self, huge, capsys):
        path, middle, decimal = huge
        code, out, err = run(["analyze", path, "--pair", "0", "1/2", "--no-timestamp"], capsys)
        assert (code, err) == (0, "")
        (record,) = read_json(out)["pairs"]
        assert (record["threshold"], record["threshold_decimal"]) == (middle, decimal)

    def test_analyze_plot(self, huge, capsys):
        path, middle, decimal = huge
        code, out, err = run(["analyze", path, "--plot-points", "3", "--no-timestamp"], capsys)
        assert (code, err) == (0, "")
        samples = read_json(out)["plot"]["samples"]
        assert [s[1] for s in samples][1] == middle
        assert [s[3] for s in samples] == [decimal] * 3
        assert [s[2] for s in samples] == [0.0, 0.5, 1.0]


class TestHugeExponents:
    def test_document_field_is_named(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"type": "piecewise_linear", "knots": [["0", "0"], ["1", "1e4301"]]}
        ))
        code, out, err = run(["analyze", str(path), "--no-timestamp"], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: invalid function document: knots[1][1]: "
            "decimal exponent above 4300 in magnitude: '1e4301'\n"
        )

    def test_pair_end(self, tent_file, capsys):
        code, out, err = run(
            ["analyze", str(tent_file), "--pair", "1e-4301", "1", "--no-timestamp"], capsys
        )
        assert (code, out) == (1, "")
        assert err == "error: decimal exponent above 4300 in magnitude: '1e-4301'\n"


    def test_result_past_the_digit_limit(self, tmp_path, capsys):
        # Every field is within the exponent limit; the crossing roots the
        # walk computes are not printable.  The failing pair is named.
        path, report = tmp_path / "digits.json", tmp_path / "report.json"
        third = "0." + "3" * 4000
        path.write_text(json.dumps({"type": "piecewise_linear", "knots": [
            ["0", "0"], ["1e-4000", "1"], [third, "1e-4000"], ["1", "1"],
        ]}))
        code, out, err = run(
            ["analyze", str(path), "--all-breakpoint-pairs", "--no-timestamp", "--out", str(report)],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: pair (0, {qcvx.format_rational(F(third))}): "
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for converting an integer to a string\n"
        )
        assert not report.exists()


    def test_result_past_the_digit_limit_names_the_pair_that_holds_it(self, tmp_path, capsys):
        # Both pairs have the level 1e-4000 and share its walk, whose one
        # component starts at an unprintable crossing root; it lies in the
        # second pair only, so that pair is named, not the first on the walk.
        path = tmp_path / "digits.json"
        third = "0." + "3" * 4000
        path.write_text(json.dumps({"type": "piecewise_linear", "knots": [
            ["0", "0"], ["1e-4000", "1"], [third, "1e-4000"], ["1/2", "1e-4000"], ["1", "1"],
        ]}))
        code, out, err = run(
            ["analyze", str(path), "--pair", third, "1/2", "--pair", "0", third, "--no-timestamp"], capsys
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: pair (0, {qcvx.format_rational(F(third))}): "
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for converting an integer to a string\n"
        )

    def test_unprintable_pair_end_is_named_by_its_double(self, tent_file, capsys):
        # 4299 decimals and the exponent -2 make a denominator of 4302 digits.
        end = "0." + "3" * 4299 + "e-2"
        code, out, err = run(["analyze", str(tent_file), "--pair", end, "1", "--no-timestamp"], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: pair near (0.0033333333333333335, 1.0): "
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for converting an integer to a string\n"
        )


class TestOracleCommand:
    def test_compare_consistent(self, tent_file, capsys):
        code, out, _ = run(
            ["oracle", str(tent_file), "--grid", "101", "--compare", "--no-timestamp"], capsys
        )
        assert code == 0
        report = read_json(out)
        assert report["comparison"]["consistent"] is True
        assert report["comparison"]["verdict_agrees"] is True

    def test_cantor3_compare_consistent(self, tmp_path, capsys):
        path = tmp_path / "c3.json"
        run(["corpus", "cantor", "--depth", "3", "--mode", "set", "--out", str(path)], capsys)
        code, out, _ = run(
            ["oracle", str(path), "--grid", "82", "--compare", "--no-timestamp"], capsys
        )
        assert code == 0
        assert read_json(out)["oracle"]["is_quasiconvex_on_grid"] is False

    def test_corrupted_expectation_exit_4(self, tent_file, tmp_path, capsys):
        expect = tmp_path / "expect.json"
        expect.write_text('{"components": [{"u": "1/4", "v": "3/4"}]}')
        code, _, _ = run(
            ["oracle", str(tent_file), "--grid", "101", "--expect", str(expect), "--no-timestamp"],
            capsys,
        )
        assert code == 4

    @pytest.mark.parametrize(
        "entry, field",
        [
            ('{"u": 1, "v": "1"}', "expect.components[0].u: expected a rational string, got 1"),
            ('{"u": "1/2", "v": "1/4"}', "expect.components[0]: needs u < v, got u = 1/2, v = 1/4"),
            ('{"u": "0", "v": "abc"}', "expect.components[0].v: not a rational: 'abc'"),
        ],
        ids=["non-string", "empty", "unparsable"],
    )
    def test_malformed_expectation_names_field(self, tent_file, tmp_path, capsys, entry, field):
        expect = tmp_path / "expect.json"
        expect.write_text('{"components": [%s]}' % entry)
        code, out, err = run(
            ["oracle", str(tent_file), "--grid", "11", "--expect", str(expect), "--no-timestamp"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == f"error: invalid expectation file: {field}\n"
        assert "Traceback" not in err

    def test_correct_expectation_passes(self, tent_file, tmp_path, capsys):
        expect = tmp_path / "expect.json"
        expect.write_text('{"components": [{"u": "0", "v": "1"}]}')
        code, _, _ = run(
            ["oracle", str(tent_file), "--grid", "101", "--expect", str(expect), "--no-timestamp"],
            capsys,
        )
        assert code == 0

    def test_compare_matches_isolated_spike(self, tmp_path, capsys):
        # Not lsc at 1/2: the grid marks the spike as a run of its own,
        # which the exact side lists under isolated_violations.
        path = tmp_path / "spike.json"
        path.write_text(
            json.dumps(
                {
                    "type": "piecewise_constant",
                    "breaks": ["0", "1/3", "1"],
                    "piece_values": ["0", "0"],
                    "point_values": ["0", "1", "0"],
                }
            )
        )
        code, out, _ = run(
            ["oracle", str(path), "--grid", "201", "--compare", "--no-timestamp"], capsys
        )
        assert code == 0
        comparison = read_json(out)["comparison"]
        assert comparison["consistent"] is True
        assert comparison["discrepancies"] == []
        assert comparison["exact_set"] == []
        assert comparison["grid_set"] != []

    @pytest.mark.parametrize("seed,pieces", [(203, 15), (205, 21)])
    def test_compare_samples_pieces_narrower_than_spacing(self, tmp_path, capsys, seed, pieces):
        # A -inf piece 1/60 wide separates two exact components; with no
        # grid point inside it the grid joined them into one run.
        path = tmp_path / "pwc.json"
        f = random_pwc(seed, pieces=pieces, allow_infinite=True)
        path.write_text(json.dumps(function_to_dict(f)))
        code, out, _ = run(
            ["oracle", str(path), "--grid", "61", "--compare", "--no-timestamp"], capsys
        )
        assert code == 0
        comparison = read_json(out)["comparison"]
        assert comparison["consistent"] is True
        assert comparison["discrepancies"] == []

    @pytest.mark.parametrize(
        "doc,grid",
        [
            ({"type": "piecewise_linear", "knots": [["0", "0"], ["1", "1"]]}, "5000"),
            ({"type": "cantor", "depth": 11, "mode": "set"}, "201"),
        ],
    )
    def test_grid_over_budget_exit_1(self, tmp_path, capsys, monkeypatch, doc, grid):
        def unreachable(*args):
            raise AssertionError("the grid was evaluated")

        # Refused before the grid is evaluated: an exact model's grid is
        # made and evaluated by its lattice walk.
        monkeypatch.setattr("qcvx.functions._ExactModel._evaluate_lattice", unreachable)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["oracle", str(path), "--grid", grid, "--no-timestamp"], capsys)
        assert code == 1
        assert out == ""
        assert "4096" in err and "points" in err

    @pytest.mark.parametrize("compare", [[], ["--compare"]])
    def test_billion_point_grid_exit_1(self, tent_file, capsys, point_budget, compare):
        code, out, err = run(
            ["oracle", str(tent_file), "--grid", str(10**9), *compare, "--no-timestamp"], capsys
        )
        assert (code, out) == (1, "")
        assert err == "error: oracle grid has 1000000001 points at resolution 1000000000, over the limit of 4096\n"

    @pytest.fixture()
    def grid_calls(self, monkeypatch):
        """Counts of the exact models' lattice walks, each of which makes
        and evaluates one grid, of the grids the oracle builds as
        Fractions, and of the evaluations of such a built grid; the exact
        verdict's own evaluations are not counted."""
        calls = {"lattice": 0, "build_grid": 0, "evaluate_sorted": 0}
        built = []
        evaluate_lattice = qcvx.functions._ExactModel._evaluate_lattice
        build_grid = qcvx.oracle.build_grid
        evaluate_sorted = qcvx.functions._Indexed.evaluate_sorted

        def counted_lattice(*args):
            calls["lattice"] += 1
            return evaluate_lattice(*args)

        def counted_build(*args, **kwargs):
            calls["build_grid"] += 1
            built.append(build_grid(*args, **kwargs))
            return built[-1]

        def counted_evaluate(self, ts):
            calls["evaluate_sorted"] += any(ts is grid for grid in built)
            return evaluate_sorted(self, ts)

        monkeypatch.setattr("qcvx.functions._ExactModel._evaluate_lattice", counted_lattice)
        monkeypatch.setattr("qcvx.oracle.build_grid", counted_build)
        monkeypatch.setattr("qcvx.functions._Indexed.evaluate_sorted", counted_evaluate)
        return calls

    @pytest.mark.parametrize(
        "pair, grids",
        [([], 1), (["--pair", "0", "1"], 1), (["--pair", "1/4", "3/4"], 2)],
        ids=["domain-by-default", "domain-ends", "inner-pair"],
    )
    def test_compare_builds_one_grid_for_the_domain(self, tent_file, capsys, grid_calls, pair, grids):
        # The violation set of the domain ends reads the verdict's grid;
        # a pair inside the domain needs a grid of its own on [x, y].
        code, out, _ = run(
            ["oracle", str(tent_file), "--grid", "33", "--compare", *pair, "--no-timestamp"], capsys
        )
        assert code == 0
        assert read_json(out)["comparison"]["consistent"] is True
        assert grid_calls == {"lattice": grids, "build_grid": 0, "evaluate_sorted": 0}

    def test_expectation_builds_one_grid_for_the_domain(self, tabulated_file, tmp_path, capsys, grid_calls):
        expect = tmp_path / "expect.json"
        expect.write_text('{"components": []}')
        code, _, _ = run(
            ["oracle", str(tabulated_file), "--expect", str(expect), "--grid", "61", "--no-timestamp"], capsys
        )
        assert code == 0
        assert grid_calls == {"lattice": 0, "build_grid": 1, "evaluate_sorted": 1}

    @pytest.fixture()
    def tabulated_file(self, tmp_path):
        path = tmp_path / "tab.json"
        path.write_text(
            json.dumps(
                {
                    "type": "tabulated",
                    "positions": [f"{i}/59" for i in range(60)],
                    "values": [str(abs(i - 30)) for i in range(60)],
                }
            )
        )
        return path

    def test_compare_on_inexact_model_rejected_before_grid_work(
        self, tabulated_file, capsys, monkeypatch
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("the oracle ran before --compare was rejected")

        monkeypatch.setattr("qcvx.cli.oracle_quasiconvex", unreachable)
        code, out, err = run(
            ["oracle", str(tabulated_file), "--compare", "--no-timestamp"], capsys
        )
        assert code == 1
        assert out == ""
        assert "--compare" in err and "Tabulated" in err

    def test_expectation_on_inexact_model_still_compares(self, tabulated_file, tmp_path, capsys):
        expect = tmp_path / "expect.json"
        expect.write_text('{"components": []}')
        code, out, _ = run(
            [
                "oracle", str(tabulated_file), "--compare", "--expect", str(expect),
                "--grid", "61", "--no-timestamp",
            ],
            capsys,
        )
        assert code == 0
        comparison = read_json(out)["comparison"]
        assert comparison["consistent"] is True
        assert comparison["exact_set"] == comparison["grid_set"] == []

    def test_pair_between_two_samples_exit_1(self, tmp_path, capsys):
        path = tmp_path / "tab.json"
        path.write_text('{"type": "tabulated", "positions": ["0", "1/2", "1"], "values": ["1", "0", "1"]}')
        expect = tmp_path / "expect.json"
        expect.write_text('{"components": []}')
        code, out, err = run(
            ["oracle", str(path), "--expect", str(expect), "--pair", "1/8", "3/8", "--no-timestamp"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == "error: 1/8 is not a sample position\n"


class TestReportFormat:
    """Each report is ``json.dumps(report, indent=2)`` and a newline."""

    @staticmethod
    def assert_indent_2(text):
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_analyze_all_pairs_with_oracle_and_plot(self, tmp_path, capsys):
        path = tmp_path / "c2.json"
        run(["corpus", "cantor", "--depth", "2", "--mode", "complement", "--out", str(path)], capsys)
        code, out, _ = run(
            ["analyze", str(path), "--all-breakpoint-pairs", "--with-oracle", "--grid", "41",
             "--plot-points", "9", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        report = read_json(out)
        assert report["plot"]["samples"][1] == ["1/8", "1", 0.125, 1.0]
        assert report["pairs"] and report["oracle"]
        self.assert_indent_2(out)

    def test_certify(self, tent_file, capsys):
        code, out, _ = run(["certify", str(tent_file), "--interval", "0", "1", "--no-timestamp"], capsys)
        assert code == 0 and read_json(out)["certificate"] is not None
        self.assert_indent_2(out)

    def test_oracle_compare(self, tent_file, capsys):
        code, out, _ = run(
            ["oracle", str(tent_file), "--grid", "101", "--compare", "--no-timestamp"], capsys
        )
        assert code == 0 and "comparison" in read_json(out)
        self.assert_indent_2(out)


class TestSummaryLists:
    """A report's function summary gives each list of more than 64 entries
    as "(N entries)", each list by its own length."""

    @staticmethod
    def summary_text(tmp_path, capsys, f) -> tuple[str, dict]:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(function_to_dict(f)))
        code, out, _ = run(["analyze", str(path), "--no-timestamp"], capsys)
        assert code == 0
        report = read_json(out)
        assert out == json.dumps(report, indent=2) + "\n"
        return out, report["function"]["summary"]

    @staticmethod
    def pwc(breaks: int):
        return qcvx.PiecewiseConstant(
            tuple(F(k, breaks) for k in range(breaks)),
            tuple(k % 3 for k in range(breaks - 1)),
            tuple(k % 2 for k in range(breaks)),
        )

    @pytest.mark.parametrize("breaks", [64, 65])
    def test_piecewise_constant_lists(self, tmp_path, capsys, breaks):
        # At 65 breakpoints the breaks and point values are summarized, and
        # the 64 piece values are still listed.
        f = self.pwc(breaks)
        out, summary = self.summary_text(tmp_path, capsys, f)
        full = function_to_dict(f)
        expected = dict(full)
        if breaks > 64:
            expected["breaks"] = expected["point_values"] = "(65 entries)"
        assert len(full["piece_values"]) == breaks - 1
        assert summary == expected
        listed = json.dumps(expected, indent=2).replace("\n", "\n    ")
        assert f'"summary": {listed},' in out

    @pytest.mark.parametrize("knots", [64, 65])
    def test_piecewise_linear_knots(self, tmp_path, capsys, knots):
        f = qcvx.corpus.random_piecewise_linear(knots, 3)
        out, summary = self.summary_text(tmp_path, capsys, f)
        expected = function_to_dict(f)
        if knots > 64:
            expected["knots"] = "(65 entries)"
        assert summary == expected
        listed = json.dumps(expected, indent=2).replace("\n", "\n    ")
        assert f'"summary": {listed},' in out


class TestReportFile:
    """A report is rendered into a spool, then published: ``--out`` is
    written under a temporary name and renamed into place, and stdout or
    a file written in place gets a copy of a complete spool."""

    @pytest.fixture()
    def disk_fills(self, monkeypatch):
        # Every file the CLI opens for writing takes half its text, then
        # fails as a full disk does.
        def failing_open(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            if "w" in mode:
                write = handle.write

                def half(text):
                    write(text[: len(text) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device")

                handle.write = half
            return handle

        monkeypatch.setattr(cli, "open", failing_open, raising=False)

    @pytest.fixture()
    def out_dir(self, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        return out_dir

    COMMANDS = {
        "analyze": lambda doc, out: ["analyze", doc, "--all-breakpoint-pairs", "--no-timestamp", "--out", out],
        "corpus": lambda doc, out: ["corpus", "vee", "--out", out],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failed_write_leaves_no_file(self, command, tent_file, out_dir, disk_fills, capsys):
        report = out_dir / "report.json"
        code, out, err = run(self.COMMANDS[command](str(tent_file), str(report)), capsys)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {report}: No space left on device\n"
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failed_write_keeps_the_existing_file(self, command, tent_file, out_dir, disk_fills, capsys):
        report = out_dir / "report.json"
        report.write_text("earlier report\n")
        code, _, err = run(self.COMMANDS[command](str(tent_file), str(report)), capsys)
        assert code == 1 and err.startswith(f"error: cannot write {report}: ")
        assert list(out_dir.iterdir()) == [report]
        assert report.read_text() == "earlier report\n"

    def test_full_temporary_directory_writes_nothing_to_stdout(self, tent_file, capsys, monkeypatch):
        # stdout's spool is an anonymous temporary file; when it cannot be
        # written, stdout gets nothing and the error names stdout.
        temporary_file = cli.tempfile.TemporaryFile

        def full(*args, **kwargs):
            handle = temporary_file(*args, **kwargs)

            def write(text):
                raise OSError(errno.ENOSPC, "No space left on device")

            handle.write = write
            return handle

        monkeypatch.setattr(cli.tempfile, "TemporaryFile", full)
        argv = ["analyze", str(tent_file), "--all-breakpoint-pairs", "--no-timestamp"]
        assert run(argv, capsys) == (1, "", "error: cannot write stdout: No space left on device\n")

    def test_report_is_not_held_in_memory(self, tmp_path, out_dir, capsys):
        # The pair records are rendered into the spool as the writer
        # reaches them, so the memory a run allocates stays well under
        # the report's length: about 1.3 MB against a 6.0 MB report here,
        # where a writer that holds the records' texts and the joined text
        # peaks at about 2.5 times the report.
        doc, report = tmp_path / "cantor5c.json", out_dir / "report.json"
        run(["corpus", "cantor", "--depth", "5", "--mode", "complement", "--out", str(doc)], capsys)
        tracemalloc.start()
        try:
            code = main(["analyze", str(doc), "--all-breakpoint-pairs", "--no-timestamp", "--out", str(report)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        size = report.stat().st_size
        assert size > 5_000_000 and peak < size / 2, (peak, size)

    @pytest.fixture()
    def late_failure(self, tmp_path):
        # 20 zigzag knots, then a steep rise whose crossing with the level
        # 1e-4000 of the pair (20, 41/2) has 8,000 digits: that pair's
        # record is refused after 271 good ones have been rendered.
        path = tmp_path / "late.json"
        knots = [[str(i), str(200 + i % 2)] for i in range(20)]
        knots += [["20", "0"], ["20." + "0" * 3999 + "1", "1"], ["20.5", "1e-4000"], ["21", "1"]]
        path.write_text(json.dumps({"type": "piecewise_linear", "knots": knots}))
        f = cli._load_function(str(path))
        assert list(combinations(f.breakpoints(), 2)).index((F(20), F(41, 2))) == 271
        return str(path)

    LATE_ERROR = (
        f"error: pair (20, 41/2): a result has more than {sys.get_int_max_str_digits()} digits, "
        "the limit for converting an integer to a string\n"
    )

    def test_late_failure_writes_nothing(self, late_failure, out_dir, capsys):
        argv = ["analyze", late_failure, "--all-breakpoint-pairs", "--no-timestamp"]
        assert run(argv, capsys) == (1, "", self.LATE_ERROR)
        new, existing = out_dir / "new.json", out_dir / "existing.json"
        existing.write_text("earlier report\n")
        for report in (new, existing):
            assert run(argv + ["--out", str(report)], capsys) == (1, "", self.LATE_ERROR)
            assert sorted(out_dir.iterdir()) == [existing]
        assert existing.read_text() == "earlier report\n"

    @pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="no /dev/fd")
    def test_late_failure_leaves_an_in_place_target_as_it_was(self, late_failure, out_dir, capsys):
        existing = out_dir / "existing.json"
        existing.write_text("earlier report\n")
        fd = os.open(existing, os.O_RDWR)
        try:
            argv = ["analyze", late_failure, "--all-breakpoint-pairs", "--no-timestamp", "--out", f"/dev/fd/{fd}"]
            assert run(argv, capsys) == (1, "", self.LATE_ERROR)
        finally:
            os.close(fd)
        assert list(out_dir.iterdir()) == [existing]
        assert existing.read_text() == "earlier report\n"

    def test_missing_directory_names_the_path(self, tent_file, tmp_path, capsys):
        report = tmp_path / "missing" / "report.json"
        code, out, err = run(["analyze", str(tent_file), "--out", str(report)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {report}: No such file or directory\n"

    def test_new_file_gets_the_mode_of_a_plain_open(self, tent_file, out_dir, capsys):
        report, plain = out_dir / "report.json", out_dir / "plain.json"
        with open(plain, "w", encoding="utf-8"):
            pass
        code, out, _ = run(["analyze", str(tent_file), "--no-timestamp", "--out", str(report)], capsys)
        assert (code, out) == (0, "")
        assert stat.S_IMODE(report.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert sorted(p.name for p in out_dir.iterdir()) == ["plain.json", "report.json"]

    def test_replaced_file_keeps_its_mode(self, tent_file, out_dir, capsys):
        report = out_dir / "report.json"
        report.write_text("earlier report\n")
        report.chmod(0o640)
        code, out, _ = run(["analyze", str(tent_file), "--no-timestamp", "--out", str(report)], capsys)
        assert code == 0
        assert read_json(report.read_text())["tool"] == "qcvx"
        assert stat.S_IMODE(report.stat().st_mode) == 0o640

    def test_symlink_target_is_replaced(self, tent_file, out_dir, capsys):
        report, link = out_dir / "report.json", out_dir / "latest.json"
        report.write_text("earlier report\n")
        link.symlink_to(report.name)
        code, _, _ = run(["analyze", str(tent_file), "--no-timestamp", "--out", str(link)], capsys)
        assert code == 0
        assert link.is_symlink() and read_json(report.read_text())["tool"] == "qcvx"

    @staticmethod
    def run_cli(argv, stdout):
        # The subprocess imports qcvx from where this process did.
        package_root = os.path.dirname(os.path.dirname(qcvx.__file__))
        inherited = os.environ.get("PYTHONPATH")
        return subprocess.run(
            [sys.executable, "-m", "qcvx.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(filter(None, (package_root, inherited))),
            },
        )

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_dev_stdout_into_a_pipe(self, tent_file, capsys):
        _, expected, _ = run(["analyze", str(tent_file), "--no-timestamp"], capsys)
        argv = ["analyze", str(tent_file), "--no-timestamp", "--out", "/dev/stdout"]
        proc = self.run_cli(argv, subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected

    def test_closed_stdout_exits_1_quietly(self, tent_file):
        # A reader that stops early, as ``| head`` does, gets no error
        # message: click exits 1 on a broken pipe.
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as closed:
            proc = self.run_cli(["analyze", str(tent_file), "--no-timestamp"], closed)
        assert (proc.returncode, proc.stderr) == (1, "")

    @pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="no /dev/fd")
    def test_descriptor_link_to_a_file_is_written_in_place(self, tent_file, out_dir, capsys):
        _, expected, _ = run(["analyze", str(tent_file), "--no-timestamp"], capsys)
        report = out_dir / "report.json"
        with open(report, "w", encoding="utf-8") as handle:
            inode = os.fstat(handle.fileno()).st_ino
            argv = ["analyze", str(tent_file), "--no-timestamp", "--out", "/dev/fd/1"]
            proc = self.run_cli(argv, handle)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert report.stat().st_ino == inode and report.read_text() == expected
        assert list(out_dir.iterdir()) == [report]


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run([], capsys)[0] == 1

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 1

    def test_certify_requires_interval(self, tent_file, capsys):
        assert run(["certify", str(tent_file)], capsys)[0] == 1

    @pytest.mark.parametrize("command", [["analyze"], ["certify", "--interval", "0", "1"], ["oracle"]])
    def test_grid_below_three_exit_1(self, tent_file, capsys, command):
        code, out, err = run([command[0], str(tent_file), *command[1:], "--grid", "2"], capsys)
        assert (code, out) == (1, "")
        assert "Invalid value for '--grid': 2 is not in the range" in err


class TestCollectPairs:
    # A model whose breakpoints are 0, 1/2 and 1.
    f = qcvx.function_from_dict({"type": "piecewise_linear", "knots": [["0", "0"], ["1/2", "1"], ["1", "0"]]})

    @pytest.mark.parametrize(
        "options, all_pairs, expected",
        [
            ([], False, [(0, 1)]),  # the domain
            ([], True, [(0, F(1, 2)), (0, 1), (F(1, 2), 1)]),
            ([("1/4", "3/4"), ("1", "0")], False, [(F(1, 4), F(3, 4)), (1, 0)]),
            ([("1/4", "3/4")], True, [(F(1, 4), F(3, 4)), (0, F(1, 2)), (0, 1), (F(1, 2), 1)]),
        ],
    )
    def test_pairs_then_breakpoint_pairs(self, options, all_pairs, expected):
        assert cli._collect_pairs(self.f, options, all_pairs) == expected

    def test_repeated_pairs_are_kept(self):
        options = [("1", "0"), ("1/2", "1"), ("1", "0")]
        assert cli._collect_pairs(self.f, options, False) == [(1, 0), (F(1, 2), 1), (1, 0)]

    def test_two_breakpoints_give_the_domain_pair_once(self):
        f = qcvx.function_from_dict({"type": "piecewise_linear", "knots": [["-1", "2"], ["3", "2"]]})
        assert cli._collect_pairs(f, [], True) == [(-1, 3)]
        assert cli._collect_pairs(f, [], False) == [(-1, 3)]

    def test_over_budget_refused_before_any_pair_is_parsed(self, monkeypatch):
        def unreachable(x, y):
            raise AssertionError("a pair was parsed")

        monkeypatch.setattr(cli, "_parse_pair", unreachable)
        f = qcvx.generate_cantor(8, "complement")
        with pytest.raises(qcvx.errors.ParameterRangeError, match="over the limit of 2763520"):
            cli._collect_pairs(f, [("0", "1")], True)

    def test_256_breakpoints_run_and_257_do_not(self):
        def flat(n):
            return qcvx.function_from_dict({"type": "piecewise_linear", "knots": [[str(k), "0"] for k in range(n)]})

        assert len(cli._collect_pairs(flat(256), [], True)) == 32640
        with pytest.raises(qcvx.errors.ParameterRangeError, match="257 breakpoints puts 2796160 breakpoints"):
            cli._collect_pairs(flat(257), [], True)

    def test_jobs_option_is_gone(self, capsys, tent_file):
        capsys.readouterr()
        code, out, err = run(["analyze", str(tent_file), "--jobs", "2"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "--jobs" in err


class TestPairBatches:
    """A pair's record does not depend on the other pairs of its batch,
    though ``pair_records`` shares each threshold line's walk among all
    the pairs on it."""

    MODELS = {
        "tent": lambda: qcvx.corpus.tent(),
        "vee": lambda: qcvx.corpus.vee(),
        "ramp-plateau": lambda: qcvx.corpus.ramp_plateau(),
        "monotone-concave": lambda: qcvx.corpus.monotone_concave(),
        "cantor-set-3": lambda: qcvx.generate_cantor(3, "set"),
        "cantor-complement-3": lambda: qcvx.generate_cantor(3, "complement"),
        "random-pl-8": lambda: qcvx.corpus.random_piecewise_linear(8, 1),
    }

    @pytest.mark.parametrize("name", list(MODELS))
    def test_records_match_alone_in_chunks_and_reversed(self, name):
        f = self.MODELS[name]()
        pairs = [f.domain, *combinations(f.breakpoints(), 2)]
        records = list(cli.pair_records(f, pairs))
        assert len(records) == len(pairs)
        assert [r for pair in pairs for r in cli.pair_records(f, [pair])] == records
        chunked = [r for k in range(0, len(pairs), 3) for r in cli.pair_records(f, pairs[k : k + 3])]
        assert chunked == records
        assert list(cli.pair_records(f, pairs[::-1])) == records[::-1]

    def test_pair_options_match_the_all_pairs_report(self, tmp_path, capsys):
        path = tmp_path / "c3.json"
        run(["corpus", "cantor", "--depth", "3", "--mode", "complement", "--out", str(path)], capsys)
        code, out, _ = run(["analyze", str(path), "--all-breakpoint-pairs", "--no-timestamp"], capsys)
        assert code == 0
        by_pair = {(p["x"], p["y"]): p for p in read_json(out)["pairs"]}
        chosen = [("2/9", "7/9"), ("0", "1/3"), ("1/27", "26/27"), ("2/9", "7/9")]
        argv = ["analyze", str(path), "--no-timestamp"]
        for x, y in chosen:
            argv += ["--pair", x, y]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert read_json(out)["pairs"] == [by_pair[pair] for pair in chosen]


def _fresh_python(*args):
    # The subprocess imports qcvx from where this process did, whether or
    # not qcvx is installed.
    package_root = os.path.dirname(os.path.dirname(qcvx.__file__))
    inherited = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (package_root, inherited))),
        },
    )


def test_console_entrypoint_runs():
    proc = _fresh_python("-m", "qcvx.cli", "--version")
    assert proc.returncode == 0
    assert "qcvx" in proc.stdout


def test_import_loads_no_numpy():
    # qcvx needs only click at run time, and starts no process pool.
    names = ("numpy", "concurrent.futures", "multiprocessing")
    proc = _fresh_python("-c", f"import sys, qcvx, qcvx.cli; print([m for m in {names} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_all_pairs_run_in_the_analyze_process(tmp_path, capsys):
    # Cantor depth 5: 2,016 pairs with C(64, 3) = 41,664 breakpoints
    # inside them, all analyzed without loading process-pool machinery.
    model, report = tmp_path / "c5.json", tmp_path / "report.json"
    run(["corpus", "cantor", "--depth", "5", "--mode", "complement", "--out", str(model)], capsys)
    argv = ["analyze", str(model), "--all-breakpoint-pairs", "--no-timestamp", "--out", str(report)]
    names = ("concurrent.futures", "multiprocessing")
    proc = _fresh_python("-c", (
        "import sys; from qcvx.cli import main; "
        f"code = main({argv!r}); print(code, [m for m in {names} if m in sys.modules])"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"
    assert len(json.loads(report.read_text())["pairs"]) == 2016
