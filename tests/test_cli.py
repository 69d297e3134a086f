"""Command dispatch, exit codes, JSON schema, and byte determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import hyperpoly
from hyperpoly.cli import (
    EXIT_ERROR, EXIT_OK, EXIT_UNDETERMINED, build_arg_parser, main, run,
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestClassify:
    def test_truncated_exp_bounded(self):
        code, out = run_cli("classify", "sum(k=0..d, X^k/k!)", "--d", "i")
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["schema"] == 1
        assert rep["verdict"] == "bounded"

    def test_eps_x_infinitesimal(self):
        code, out = run_cli("classify", "eps := 1/i; eps*X")
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "infinitesimal"

    def test_geometric_unbounded_with_oracle(self):
        code, out = run_cli(
            "classify", "sum(k=0..d, X^k)", "--d", "i", "--radius", "3"
        )
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["verdict"] == "unbounded"
        assert rep["oracle"]["bounded"]["kind"] == "Fails"

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_horizon_below_one_is_a_typed_error(self, horizon):
        code, out = run_cli(
            "classify", "sum(k=0..d, X^k)", "--d", "i", "--radius", "3",
            "--horizon", horizon,
        )
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "ValueError"

    def test_parse_error_exit_code(self):
        code, out = run_cli("classify", "X^")
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "parse"

    def test_window_too_short_for_a_ratio_is_undetermined(self):
        # at horizon 4 the last quarter of the window holds one value
        code, out = run_cli(
            "classify", "sum(k=0..d, X^k)", "--d", "i", "--radius", "3",
            "--horizon", "4",
        )
        oracle = json.loads(out)["oracle"]
        assert code == EXIT_OK
        assert oracle["bounded"]["kind"] == "Undetermined"
        assert oracle["infinitesimal"]["kind"] == "Undetermined"
        assert oracle["bounded"]["witness"] == 4

    def test_explicit_horizon_reaches_the_oracle(self):
        code, out = run_cli(
            "classify", "sum(k=0..d, X^k)", "--d", "i", "--radius", "3",
            "--horizon", "48", "--oracle",
        )
        oracle = json.loads(out)["oracle"]
        assert code == EXIT_OK
        assert oracle["bounded"]["kind"] == "Fails"
        assert oracle["bounded"]["witness"] == 48


class TestStdpart:
    def test_perturbed_x(self):
        code, out = run_cli("stdpart", "(1 + 1/i)*X", "--order", "4")
        rep = json.loads(out)
        assert code == EXIT_OK
        coeffs = rep["series"]["coefficients"]
        assert coeffs == {"1": ["1", "0"]}

    def test_unbounded_refused(self):
        code, out = run_cli("stdpart", "sum(k=0..d, X^k)", "--d", "i")
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "StandardPartError"


class TestZeros:
    def test_exp_minus_two(self):
        code, out = run_cli(
            "zeros", "sum(k=0..d, X^k/k!) - 2", "--d", "i",
            "--radius", "2", "--indices", "10,20",
        )
        rep = json.loads(out)
        assert code == EXIT_OK
        root = rep["roots"]["20"][0]
        assert abs(root[0] - 0.6931471805599453) < 1e-6


class TestLeibnizCommands:
    def test_delta(self):
        code, out = run_cli("delta", "X^2")
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["slicesAtIndex4"]["1"]["1"] == ["2", "0"]
        assert rep["slicesAtIndex4"]["2"]["0"] == ["1", "0"]

    def test_phi(self):
        code, out = run_cli("phi", "2*X*dX + dX^2")
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["form"]["components"][0]["coefficients"] == {"1": ["2", "0"]}

    def test_phi_rejects_non_I(self):
        code, out = run_cli("phi", "1 + dX")
        assert code == EXIT_ERROR

    def test_derivation_check(self):
        code, out = run_cli("derivation-check", "X", "X")
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["verdict"]["kind"] == "Holds"


class TestLift:
    def test_tower_from_file(self, tmp_path):
        levels = ["1", "1 + X", "1 + X + X^2"]
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(levels), encoding="utf-8")
        code, out = run_cli("lift", "--field", "q", "--levels", str(path))
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["congruencesExact"] is True
        assert rep["depth"] == 2

    def test_incoherent_tower_fails(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(["1", "2 + X"]), encoding="utf-8")
        code, out = run_cli("lift", "--field", "q", "--levels", str(path))
        assert code == EXIT_ERROR

    def test_unreadable_levels_file_is_a_typed_error(self, tmp_path):
        code, out = run_cli("lift", "--field", "q", "--levels", str(tmp_path / "missing.json"))
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "FileNotFoundError"

    def test_level_mentioning_the_index_is_refused(self, tmp_path):
        path = tmp_path / "indexed.json"
        path.write_text(json.dumps(["1", "1 + X/i"]), encoding="utf-8")
        code, out = run_cli("lift", "--field", "q", "--levels", str(path))
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "parse"

    @pytest.mark.parametrize("levels", [[1, "X"], {"X": 1}], ids=["number", "object"])
    def test_levels_that_are_not_a_list_of_strings_are_refused(self, tmp_path, levels):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(levels), encoding="utf-8")
        code, out = run_cli("lift", "--field", "q", "--levels", str(path))
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "ValueError"

    def test_composite_field_is_refused(self, tmp_path):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(["1", "1 + X"]), encoding="utf-8")
        code, out = run_cli("lift", "--field", "4", "--levels", str(path))
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "TowerError"


class TestGeneric:
    def test_line_with_halo(self):
        code, out = run_cli(
            "generic", "--param", "t -> t", "--halo", "0",
            "--indices", "1..6",
        )
        rep = json.loads(out)
        assert code == EXIT_OK
        assert len(rep["indices"]) == 6
        for i, entry in rep["indices"].items():
            avoid = [e for e in entry["log"] if e["kind"] == "avoidance"]
            assert len(avoid) == int(i)

    def test_plane_curve(self):
        code, out = run_cli(
            "generic", "--param", "t -> (t, 0)", "--indices", "1..4"
        )
        rep = json.loads(out)
        assert code == EXIT_OK
        assert all(entry["point"][1] == "0" for entry in rep["indices"].values())


class TestKochen:
    def test_exhaustive_f2(self):
        code, out = run_cli("kochen", "--index-size", "3", "--field", "2", "--enumerate")
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["bijective"] is True
        assert rep["primesMatchUltrafilters"] is True
        assert rep["ideals"] == 8

    def test_composite_field_is_refused(self):
        code, out = run_cli("kochen", "--index-size", "2", "--field", "4")
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "ValueError"


class TestInputRanges:
    @pytest.mark.parametrize("argv", [
        ("zeros", "X", "--radius", "-1"),
        ("zeros", "X", "--indices", "0,10"),
        ("generic", "--param", "t -> t", "--indices", "0..2"),
        ("generic", "--param", "t -> t", "--indices", "5..2"),
        ("stdpart", "X", "--order", "-1"),
        ("kochen", "--index-size", "-1"),
        ("delta", "X^2", "--horizon", "-3"),
        ("delta", "X^2", "--samples", "0"),
    ], ids=["radius", "zeros-indices", "generic-indices", "generic-empty-range", "order",
            "index-size", "horizon", "samples"])
    def test_out_of_range_is_a_typed_error(self, argv):
        code, out = run_cli(*argv)
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "ValueError"

    def test_json_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["delta", "X^2", "--json"])


class TestEntryPoints:
    def test_bad_horizon_environment_is_a_typed_error(self, monkeypatch):
        monkeypatch.setenv("HYPERPOLY_HORIZON", "zero")
        code, out = run_cli("delta", "X^2")
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "ValueError"

    def test_run_prints_nothing_and_returns_the_printed_report(self, capsys):
        report, code = run("delta X^2")
        assert capsys.readouterr().out == ""
        assert main(["delta", "X^2"]) == code == EXIT_OK
        assert json.loads(capsys.readouterr().out) == report

    @pytest.mark.parametrize("argv,want", [
        (("delta", "X^2"), EXIT_OK),
        (("classify", "X^"), EXIT_ERROR),
    ], ids=["success", "error"])
    def test_pretty_output(self, argv, want):
        code, out = run_cli(*argv, "--pretty")
        report = json.loads(out)
        assert code == want
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert out.count("\n") > 1

    def test_module_run_without_runtime_warning(self):
        src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hyperpoly.cli",
             "delta", "X^2"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["command"] == "delta"


class TestDeterminism:
    CORPUS = [
        ("classify", "sum(k=0..d, X^k/k!)", "--d", "i", "--seed", "7"),
        ("classify", "sum(k=0..d, X^k)", "--d", "i", "--radius", "3", "--seed", "7"),
        ("stdpart", "(1 + 1/i)*X", "--order", "6", "--seed", "3"),
        ("zeros", "sum(k=0..d, X^k/k!) - 2", "--d", "i", "--indices", "10,20", "--radius", "2"),
        ("delta", "X^2"),
        ("phi", "2*X*dX + dX^2"),
        ("derivation-check", "X", "X*X"),
        ("generic", "--param", "t -> t", "--indices", "1..8", "--seed", "11"),
        ("kochen", "--index-size", "2", "--field", "3"),
        ("eval", "eps := 1/i; eps*X", "--at", "2"),
    ]

    @pytest.mark.parametrize("argv", CORPUS, ids=lambda a: a[0])
    def test_byte_identical_across_runs(self, argv):
        code1, out1 = run_cli(*argv)
        code2, out2 = run_cli(*argv)
        assert code1 == code2
        assert out1 == out2
        assert out1.strip()
        json.loads(out1)
