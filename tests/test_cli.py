"""Command dispatch, exit codes, JSON schema, and byte determinism."""

import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperpoly
from hyperpoly.cli import (
    COMMANDS, EXIT_ERROR, EXIT_OK, EXIT_UNDETERMINED, build_arg_parser, main, run,
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

    @pytest.mark.parametrize("inline,declared", [
        ("2^i*X", "c := 2^i; c*X"),
        ("(1/2)^i*X + 1", "c := (1/2)^i; c*X + 1"),
    ])
    def test_index_power_reads_as_its_declared_sequence(self, inline, declared):
        # c^i inside a polynomial is the sequence factor a declaration binds
        got = run_cli("classify", inline)
        assert got[0] == EXIT_OK
        assert got == run_cli("classify", declared)

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

    @pytest.mark.parametrize("order", ["2", "3", "6"])
    def test_pole_at_an_early_index_answers_at_every_order(self, order):
        # 1/(i - 3)^k has no value at index 3, which no standard part reads
        code, out = run_cli("stdpart", "sum(k=0..d, X^k/(i-3)^k)", "--d", "i", "--order", order)
        assert code == EXIT_OK
        assert json.loads(out)["series"]["coefficients"] == {"0": ["1", "0"]}


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

    def test_tiny_leading_coefficient_keeps_the_root_at_zero(self):
        # the rescaling power of the root finder passes the float range here
        code, out = run_cli("zeros", "X + X^2/10^200", "--radius", "2", "--indices", "5,10")
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["roots"] == {"5": [[0.0, 0.0]], "10": [[0.0, 0.0]]}
        assert rep["standardPartRoots"] == [[0.0, 0.0]]


class TestLeibnizCommands:
    def test_delta(self):
        code, out = run_cli("delta", "X^2")
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["slicesAtIndex4"]["1"]["1"] == ["2", "0"]
        assert rep["slicesAtIndex4"]["2"]["0"] == ["1", "0"]

    def test_delta_of_a_hyperfinite_degree_is_refused(self):
        code, out = run_cli("delta", "sum(k=0..d, X^k)", "--d", "i")
        assert code == EXIT_ERROR
        assert json.loads(out) == {
            "error": "ValueError", "schema": 1,
            "message": "delta of a hyperfinite-degree polynomial has hyperfinitely many "
                       "slices; apply it to finite-degree (explicit) polynomials"}

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

    def test_derivation_check_orders_variables_over_both_expressions(self):
        # Y is the second variable in f*g = X*Y*i, not a second copy of X
        code, out = run_cli("derivation-check", "X", "Y*i")
        assert code == EXIT_ERROR
        assert json.loads(out) == {
            "error": "DnCertificateError", "schema": 1,
            "message": "slice at dX^(1, 1) classifies unbounded",
        }

    def test_derivation_check_reads_each_expression_with_its_declarations(self):
        code, out = run_cli("derivation-check", "X", "c := 2; c*X")
        assert code == EXIT_OK
        assert json.loads(out)["verdict"]["kind"] == "Holds"


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

    def test_levels_share_one_variable_order(self, tmp_path):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(["1", "1 + Y", "1 + Y + X*Y"]), encoding="utf-8")
        code, out = run_cli("lift", "--field", "q", "--levels", str(path))
        rep = json.loads(out)
        assert code == EXIT_OK
        assert rep["residueAtDepth"] == {"0,0": "1", "0,1": "1", "1,1": "1"}

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

    def test_prime_field_reads_a_fraction_as_a_quotient(self, tmp_path):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(["1", "1 + X/2", "1 + X/2 + Y^2"]), encoding="utf-8")
        code, out = run_cli("lift", "--field", "5", "--levels", str(path))
        assert code == EXIT_OK
        # 1/2 = 3 in F_5
        assert json.loads(out)["residueAtDepth"] == {"0,0": "1", "0,2": "1", "1,0": "3"}

    def test_denominator_divisible_by_the_modulus_is_refused(self, tmp_path):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(["1", "1 + X/5"]), encoding="utf-8")
        code, out = run_cli("lift", "--field", "5", "--levels", str(path))
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "TowerError"

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

    @pytest.mark.parametrize("param,first", [
        ("t -> (t/2, t)", lambda t: t / 2),
        ("t -> (sum(k=0..2, t^k), t)", lambda t: 1 + t + t * t),
        ("i -> (i^2 - 1, i)", lambda t: t * t - 1),
    ], ids=["quotient", "sum", "named-i"])
    def test_coordinates_read_like_lift_levels(self, param, first):
        code, out = run_cli("generic", "--param", param, "--indices", "1..4")
        rep = json.loads(out)
        assert code == EXIT_OK
        for entry in rep["indices"].values():
            x, t = (Fraction(c) for c in entry["point"])
            assert x == first(t)


    def test_far_halo_is_named_on_exhaustion(self):
        code, out = run_cli("generic", "--param", "t -> t", "--halo", "1000000",
                            "--indices", "1..1")
        assert code == EXIT_ERROR
        assert json.loads(out) == {
            "error": "GridExhausted", "schema": 1,
            "message": "grid exhausted at index 1; obstructed by ['halo |x - center|^2 <= 1']"}

    @pytest.mark.parametrize("height", ["0", "-2"])
    def test_corpus_height_below_one_exits_at_once(self, height):
        # a corpus of height below 1 holds no polynomial; searching it never
        # returns, so the command runs in a child process the timeout can stop
        src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "hyperpoly", "generic", "--param", "t -> (t, 0)",
             "--corpus", f"heights:{height}", "--indices", "1..2"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == EXIT_ERROR
        assert json.loads(proc.stdout)["error"] == "ValueError"


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

    def test_ring_too_large_to_enumerate_is_refused_at_once(self):
        t0 = time.monotonic()
        code, out = run_cli("kochen", "--index-size", "12", "--field", "2")
        assert time.monotonic() - t0 < 1
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "SizeError"


class TestInputRanges:
    @pytest.mark.parametrize("argv", [
        ("zeros", "X", "--radius", "-1"),
        ("zeros", "X", "--indices", "0,10"),
        ("generic", "--param", "t -> t", "--indices", "0..2"),
        ("generic", "--param", "t -> t", "--indices", "5..2"),
        ("stdpart", "X", "--order", "-1"),
        ("kochen", "--index-size", "-1"),
        ("eval", "X^2", "--horizon", "-3"),
        ("classify", "X", "--oracle", "--samples", "0"),
        ("classify", "eps := 1/i; eps*X", "--dump-index", "-3"),
        ("classify", "eps := 1/i; eps*X", "--dump-index", "0"),
        ("generic", "--param", "t -> t", "--corpus", "bogus"),
        ("generic", "--param", "t -> t", "--corpus", "rows:2"),
        ("zeros", "eps := 1/i; X^2 + eps*X^3 - 1", "--indices", "5,50", "--tol=nan"),
        ("zeros", "eps := 1/i; X^2 + eps*X^3 - 1", "--indices", "50,5", "--tol=inf"),
        ("zeros", "X", "--tol=-inf"),
        ("zeros", "X", "--tol=-1e-9"),
    ], ids=["radius", "zeros-indices", "generic-indices", "generic-empty-range", "order",
            "index-size", "horizon", "samples", "dump-index-negative", "dump-index-zero",
            "corpus-kind", "corpus-rows", "tol-nan", "tol-inf", "tol-minus-inf",
            "tol-negative"])
    def test_out_of_range_is_a_typed_error(self, argv):
        code, out = run_cli(*argv)
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "ValueError"

    def test_radius_with_a_zero_denominator_is_a_typed_error(self):
        code, out = run_cli("zeros", "X", "--radius", "1/0")
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "ZeroDivisionError"

    def test_dump_index_one_prints_the_coefficients(self):
        code, out = run_cli("classify", "eps := 1/i; eps*X", "--dump-index", "1")
        assert code == EXIT_OK
        assert json.loads(out)["materialized"] == {"index": 1, "coefficients": {"1": ["1", "0"]}}

    def test_json_flag_is_gone(self):
        code, out = run_cli("delta", "X^2", "--json")
        assert code == EXIT_ERROR
        assert json.loads(out) == {"schema": 1, "error": "UsageError",
                                   "message": "hyperpoly delta: unrecognized arguments: --json"}


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (("classify", "X", "--bogus"), "hyperpoly classify: unrecognized arguments: --bogus"),
        (("stdpart", "X", "--seed", "5"), "hyperpoly stdpart: unrecognized arguments: --seed 5"),
        (("delta", "X^2", "Y"), "hyperpoly delta: unrecognized arguments: Y"),
        (("classify",), "expr"),
        (("classify", "X", "--samples", "many"), "--samples"),
        (("bogus", "X"), "bogus"),
        ((), "subcommand"),
        (("stdpart", "X", "--ord", "2"), "hyperpoly stdpart: unrecognized arguments: --ord 2"),
        (("kochen", "--e"), "hyperpoly kochen: unrecognized arguments: --e"),
    ], ids=["unknown-flag", "unread-flag", "extra-argument", "missing-expr", "bad-int",
            "unknown-command", "no-command", "abbreviated-option", "abbreviated-switch"])
    def test_malformed_command_line_is_one_json_error_line(self, argv, message):
        code, out = run_cli(*argv)
        assert code == EXIT_ERROR
        assert out.count("\n") == 1
        report = json.loads(out)
        assert report.keys() == {"schema", "error", "message"}
        assert (report["schema"], report["error"]) == (1, "UsageError")
        assert message in report["message"]

    def test_pretty_applies_to_an_unread_flag_report(self):
        code, out = run_cli("stdpart", "X", "--seed", "5", "--pretty")
        assert code == EXIT_ERROR
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_run_returns_the_usage_error_report(self, capsys):
        report, code = run("stdpart X", ("--seed", "5"))
        assert capsys.readouterr().out == ""
        assert code == EXIT_ERROR
        assert report == {"schema": 1, "error": "UsageError",
                          "message": "hyperpoly stdpart: unrecognized arguments: --seed 5"}

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stdpart", "--help"])
        assert exc.value.code == 0
        assert "--order" in capsys.readouterr().out

    @pytest.mark.parametrize("name", [row[0] for row in COMMANDS])
    def test_command_help_exits_zero(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: hyperpoly {name} ")

    def test_module_help_lists_every_command(self):
        src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
        proc = subprocess.run([sys.executable, "-m", "hyperpoly.cli", "--help"],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert len(COMMANDS) == 10
        for name, *_ in COMMANDS:
            assert f"    {name} " in proc.stdout, name

    def test_program_parser_knows_every_command_word(self):
        # run() reads the command word through the program parser
        from hyperpoly import parser

        assert sorted(parser.COMMANDS) == sorted(row[0] for row in COMMANDS)

    def test_parser_is_built_once(self):
        assert build_arg_parser() is build_arg_parser()


# the flags every command used to accept, read or not
FORMERLY_SHARED = ("--horizon", "--tol", "--order", "--radius", "--samples", "--seed", "--d",
                   "--pretty")
# a value each argument parses; None for a switch
SAMPLE = {
    "expr": "X", "f": "X", "g": "X*X", "--d": "i", "--horizon": "8", "--tol": "1e-6",
    "--order": "3", "--radius": "2", "--samples": "4", "--seed": "1", "--oracle": None,
    "--dump-index": "1", "--indices": "1", "--at": "2", "--field": "2",
    "--levels": "tower.json", "--param": "t -> t", "--corpus": "heights:2", "--halo": "0",
    "--index-size": "2", "--enumerate": None, "--pretty": None,
}


def _argv(flags):
    argv = []
    for flag in flags:
        if flag.startswith("--"):
            argv.append(flag)
        if SAMPLE[flag] is not None:
            argv.append(SAMPLE[flag])
    return argv


@pytest.mark.parametrize("row", COMMANDS, ids=lambda row: row[0])
def test_command_accepts_exactly_its_flags(row):
    name, fn, _, flags = row
    listed = [f if isinstance(f, str) else f[0] for f in flags]
    args, unread = build_arg_parser().parse_known_args([name, *_argv(listed + ["--pretty"])])
    assert unread == []
    assert args.fn is fn
    for flag in FORMERLY_SHARED:
        if flag in listed + ["--pretty"]:
            continue
        code, out = run_cli(name, *_argv(listed), *_argv([flag]))
        assert code == EXIT_ERROR, flag
        assert out.count("\n") == 1
        report = json.loads(out)
        assert report["error"] == "UsageError"
        assert report["message"].startswith(f"hyperpoly {name}: unrecognized arguments: {flag}")


class TestEntryPoints:
    def test_run_prints_nothing_and_returns_the_printed_report(self, capsys):
        report, code = run("delta X^2")
        assert capsys.readouterr().out == ""
        assert main(["delta", "X^2"]) == code == EXIT_OK
        assert json.loads(capsys.readouterr().out) == report

    @pytest.mark.parametrize("text,message", [
        ("classify X^", "unexpected end of input"),
        ("classify foo*X", "unbound name 'foo'"),
    ], ids=["malformed", "unbound-name"])
    def test_run_reports_a_parse_error_as_main_does(self, text, message):
        report, code = run(text)
        main_code, out = run_cli(*text.split(" ", 1))
        printed = json.loads(out)
        assert code == main_code == EXIT_ERROR
        assert report.keys() == printed.keys() == {"schema", "error", "message"}
        assert report["error"] == printed["error"] == "parse"
        assert message in report["message"] and message in printed["message"]

    def test_run_of_a_text_without_a_command_is_a_parse_report(self):
        assert run("X") == ({"schema": 1, "error": "parse",
                             "message": "program text must name a command"}, EXIT_ERROR)

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


    def test_closed_pipe_exits_one_without_a_traceback(self):
        src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        # about 177 kB of output, more than a pipe buffers
        proc = subprocess.Popen(
            [sys.executable, "-m", "hyperpoly", "stdpart", "sum(k=0..d, X^k/k!)",
             "--d", "i", "--order", "400", "--pretty"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_ERROR
        assert err == b""


class TestEval:
    EXPR = ("eval", "sum(k=0..d, X^k)", "--d", "i", "--at", "2")
    WINDOW = ["(3+0j)", "(7+0j)", "(31+0j)", "(511+0j)", "(131071+0j)"]

    def test_default_horizon_leaves_the_growth_undetermined(self):
        code, out = run_cli(*self.EXPR)
        assert code == EXIT_UNDETERMINED
        assert json.loads(out) == {
            "classification": {"class": "undetermined", "verdict": {
                "kind": "Undetermined", "note": "window evidence inconclusive", "witness": 64}},
            "command": "eval", "schema": 1, "window": self.WINDOW,
        }

    @pytest.mark.parametrize("via", ["flag", "program-text"])
    def test_horizon_eight_sees_the_growth(self, via):
        if via == "flag":
            code, out = run_cli(*self.EXPR, "--horizon", "8")
        else:
            report, code = run(" ".join(self.EXPR[:2]), (*self.EXPR[2:], "--horizon", "8"))
            out = json.dumps(report, sort_keys=True)
        assert code == EXIT_OK
        assert json.loads(out) == {
            "classification": {"class": "infinite", "verdict": {
                "kind": "Holds", "note": "window: sustained growth ratio > 2.0", "witness": 7}},
            "command": "eval", "schema": 1, "window": self.WINDOW,
        }

    def test_growth_past_the_float_range_reads_undetermined(self):
        # From index ~205 on, 1 + 2^i + ... + 2^5i is too large for a float:
        # the window reads it as an infinite magnitude, not an OverflowError.
        code, out = run_cli("eval", "sum(k=0..d, X^k)", "--d", "5", "--at", "2^i",
                            "--horizon", "3200")
        assert code == EXIT_UNDETERMINED
        assert json.loads(out)["classification"] == {"class": "undetermined", "verdict": {
            "kind": "Undetermined", "note": "window evidence inconclusive", "witness": 3200}}

    @pytest.mark.parametrize("argv,code,label", [
        (("X^2", "--at", "2^600"), EXIT_OK, "appreciable"),
        (("sum(k=0..d, X^k)", "--d", "5", "--at", "2^300"), EXIT_UNDETERMINED, "undetermined"),
    ], ids=["symbolic", "band"])
    def test_window_past_the_float_range_reads_inf(self, argv, code, label):
        got, out = run_cli("eval", *argv)
        assert got == code
        rep = json.loads(out)
        assert rep["classification"]["class"] == label
        assert rep["window"] == ["(inf+0j)"] * 5

    def test_power_of_a_band_prints_the_same_bytes(self):
        code, out = run_cli(
            "eval", "eps := 1/i; (sum(k=0..d, k*eps*X^k) - sum(k=0..2, 1*X^k))^3", "--at", "2")
        assert code == EXIT_OK
        assert out == (
            '{"classification": {"class": "infinite", "verdict": {"kind": "Holds", '
            '"note": "window: sustained growth ratio > 2.0", "witness": 49}}, '
            '"command": "eval", "schema": 1, "window": ["(-125+0j)", "(-8+0j)", '
            '"(5359.375+0j)", "(85912064.453125+0j)", "(1855114462223675+0j)"]}\n'
        )

    # one row per window verdict of a generator-backed value, bytes as printed
    # before generators carried exact pairs
    @pytest.mark.parametrize("argv,out", [
        (("eps := 1/i!; sum(k=0..d, eps*X^k)", "--d", "i", "--at", "1/2"),
         '{"classification": {"class": "infinitesimal", "verdict": {"kind": "Holds", '
         '"note": "window: |x| < 1e-09 on last quarter", "witness": 49}}, '
         '"command": "eval", "schema": 1, "window": ["(1.5+0j)", "(0.875+0j)", '
         '"(0.08072916666666667+0j)", "(4.950629340277778e-05+0j)", '
         '"(9.558881735738326e-14+0j)"]}\n'),
        (("sum(k=0..d, X^k/k!)", "--d", "i", "--at", "1/i"),
         '{"classification": {"class": "bounded-unclassified", "verdict": {"kind": "Holds", '
         '"note": "window: |x| <= 2 across horizon 64", "witness": 1}}, '
         '"command": "eval", "schema": 1, "window": ["(2+0j)", "(1.625+0j)", '
         '"(1.2840169270833333+0j)", "(1.1331484530668055+0j)", "(1.0644944589178593+0j)"]}\n'),
        (("sum(k=0..d, X^k)", "--d", "i", "--at", "3"),
         '{"classification": {"class": "infinite", "verdict": {"kind": "Holds", '
         '"note": "window: sustained growth ratio > 2.0", "witness": 49}}, '
         '"command": "eval", "schema": 1, "window": ["(4+0j)", "(13+0j)", "(121+0j)", '
         '"(9841+0j)", "(64570081+0j)"]}\n'),
    ], ids=["infinitesimal", "bounded-unclassified", "infinite"])
    def test_window_verdicts_print_the_same_bytes(self, argv, out):
        assert run_cli("eval", *argv) == (EXIT_OK, out)


class TestDeterminism:
    CORPUS = [
        ("classify", "sum(k=0..d, X^k/k!)", "--d", "i", "--seed", "7"),
        ("classify", "sum(k=0..d, X^k)", "--d", "i", "--radius", "3", "--seed", "7"),
        ("stdpart", "(1 + 1/i)*X", "--order", "6"),
        ("zeros", "sum(k=0..d, X^k/k!) - 2", "--d", "i", "--indices", "10,20", "--radius", "2"),
        ("delta", "X^2"),
        ("phi", "2*X*dX + dX^2"),
        ("derivation-check", "X", "X*X"),
        ("generic", "--param", "t -> t", "--indices", "1..8"),
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
        assert "error" not in json.loads(out1)


class TestDeepExpressions:
    @pytest.mark.parametrize("argv", [
        ("classify", "(" * 400 + "X" + ")" * 400),
        ("delta", "-".join(["X"] * 3000)),
    ], ids=["nested-parentheses", "long-difference"])
    def test_too_deep_is_a_typed_error(self, argv):
        code, out = run_cli(*argv)
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "RecursionError"

    def test_moderate_nesting_still_works(self):
        code, out = run_cli("classify", "(" * 200 + "X" + ")" * 200)
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "bounded"


# Every refusal the expression walkers raise, with its text; the rows marked
# "new" replaced an older message when every polynomial came to be built by
# one walker.
REFUSALS = [
    (("classify", "X^"), "unexpected end of input at line 1, column 3 (expected nat, ident)"),
    (("classify", "X^k"), "polynomial powers need literal exponents; use sum(...) for bands"),
    (("phi", "X^k*dX"),  # new
     "polynomial powers need literal exponents; use sum(...) for bands"),
    (("phi", "sum(k=0..d, X^k)*dX"),  # new
     "summation bands are univariate in the command grammar"),
    (("classify", "Y * sum(k=0..d, X^k/k!)"),
     "summation bands are univariate in the command grammar"),
    (("derivation-check", "sum(k=0..2, X^k)", "Y"),  # new: f and g share X and Y
     "summation bands are univariate in the command grammar"),
    (("classify", "sum(k=0..e, X^k)"), "summation bound 'e' is not a declared hypernatural"),
    (("classify", "sum(k=0..d, X^k*X^k)"), "only one X^k power per summation body"),
    (("classify", "sum(k=0..d, k)"),
     "summation bodies must contain a power X^k of the loop variable"),
    (("classify", "sum(k=0..d, k^k * X^k)"), "band base may not depend on the loop variable"),
    (("classify", "sum(k=0..d, (k+i)*X^k)"),
     "band coefficients must separate into phi(k) * eps(i)^k * psi(i)"),
    (("classify", "sum(k=0..d, (k+eps)*X^k)"), "unexpected name 'eps' in a band coefficient"),
    (("classify", "sum(k=0..d, (k+j!)*X^k)"), "factorial of 'j' inside a band over 'k'"),
    (("classify", "sum(k=0..d, (1+k^k)*X^k)"), "nested loop powers are not in the band fragment"),
    (("classify", "nope*X"), "unbound name 'nope' in a sequence expression"),
    (("classify", "X!"), "factorial applies to 'i', got 'X'"),
    (("classify", "X/i^i"), "c^i needs a constant rational base"),
    (("classify", "X/2^k"), "sequence powers need a literal natural or 'i' exponent"),
    (("classify", "X", "--d", "i*i"), "hypernatural expressions must stay affine in i"),
    (("classify", "X", "--d", "i/2"), "operator '/' not allowed in hypernaturals"),
    (("classify", "c := X; X"), "declaration 'c' is neither a sequence nor a hypernatural"),
    (("eval", "X", "--at", "X"), "unbound name 'X' in a sequence expression"),
    (("generic", "--param", "t (t, 0)"),
     "parametrization must look like 't -> (expr, ..., expr)'"),
    (("generic", "--param", "t -> (t*i, 0)"),  # new
     "coordinate 't*i' mentions the index i; coordinates are standard polynomials"),
    (("generic", "--param", "t -> (u, 0)"),  # new
     "unbound name 'u' in a sequence expression"),
    (("generic", "--param", "t -> (t!, 0)"),  # new
     "factorial applies to 'i', got 't'"),
    (("generic", "--param", "t -> (t/t, 0)"),  # new
     "unbound name 't' in a sequence expression"),
    (("generic", "--param", "t -> (2^t, 0)"),  # new
     "polynomial powers need literal exponents; use sum(...) for bands"),
    (("generic", "--param", "t -> (, 0)"),  # an empty coordinate
     "expected a bare expression at line 1, column 1"),
    (("generic", "--param", "i -> (i!, 0)"),  # new
     "'i' is a polynomial variable here, not the index"),
    (("generic", "--param", "i -> (1/i, 0)"),  # new
     "'i' is a polynomial variable here, not the index"),
    # an unreadable expression is written in the grammar, not as Python objects
    (("classify", "sum(k=0..d, X^k)", "--d", "2^i"), "cannot read (2 ^ i) as a hypernatural"),
    (("classify", "sum(k=0..d, X^k)", "--d", "-1"), "cannot read (-1) as a hypernatural"),
    (("eval", "X", "--at", "sum(k=0..2, k*X^k)"),
     "cannot read sum(k = 0 .. 2, (k * (X ^ k))) as a sequence"),
    (("classify", "sum(k=0..d, sum(j=0..2, k*X^j)*X^k)", "--d", "i"),
     "cannot read sum(j = 0 .. 2, (k * (X ^ j))) as a band coefficient"),
    # a coordinate is one bare expression: a command word is not dropped
    (("generic", "--param", "t -> (classify t, 0)"),
     "expected a bare expression at line 1, column 1"),
    # so are --d and --at: no command word, declaration or empty text
    (("classify", "sum(k=0..d, X^k)", "--d", "classify i"),
     "expected a bare expression at line 1, column 1"),
    (("eval", "X", "--at", "classify 2"), "expected a bare expression at line 1, column 1"),
    (("classify", "X", "--d", ""), "expected a bare expression at line 1, column 1"),
    (("eval", "X", "--at", ""), "expected a bare expression at line 1, column 1"),
    (("eval", "X", "--at", "c := 3; c"), "expected a bare expression at line 1, column 1"),
    # a sum's loop variable hides the index only inside the sum
    (("generic", "--param", "t -> (i + sum(i=0..2, t^i), 0)", "--indices", "1..1"),
     "coordinate 'i + sum(i=0..2, t^i)' mentions the index i; coordinates are standard "
     "polynomials"),
]


@pytest.mark.parametrize("argv,message", REFUSALS)
def test_refusal_table(argv, message):
    code, out = run_cli(*argv)
    assert code == EXIT_ERROR
    assert json.loads(out) == {"error": "parse", "message": message, "schema": 1}


@pytest.mark.parametrize("levels,message", [
    (["1", "1 + X/i"],
     "tower level '1 + X/i' mentions the index i; levels are standard polynomials"),
    (["1", "1 + eps*X"], "unbound name 'eps' in a sequence expression"),
    (["1", "1 + sum(k=1..2, X^k/k!)", "1 + X + X^2/2 + Y^3"],  # the tower is in X and Y
     "summation bands are univariate in the command grammar"),
    (["classify X"], "expected a bare expression at line 1, column 1"),
    (["", "X"], "expected a bare expression at line 1, column 1"),
], ids=["index", "unbound", "band-in-two-variables", "command-word", "empty-level"])
def test_lift_level_refusals(tmp_path, levels, message):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(levels), encoding="utf-8")
    code, out = run_cli("lift", "--field", "q", "--levels", str(path))
    assert code == EXIT_ERROR
    assert json.loads(out) == {"error": "parse", "message": message, "schema": 1}


# -- the benchmark's golden CLI corpus, replayed byte for byte -----------------

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
with open(os.path.join(PERFBENCH, "golden", "cli.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def _tower_levels():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.TOWER_LEVELS


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cli_corpus(name, tmp_path, monkeypatch):
    (tmp_path / "tower.json").write_text(json.dumps(_tower_levels()), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    want = GOLDEN[name]
    code, out = run_cli(*want["argv"])
    assert (code, out) == (want["exit"], want["stdout"])


def _replay_in_a_fresh_process(name, tmp_path, **environ):
    """The exit code and stdout of golden command ``name`` run by a fresh
    interpreter whose environment adds ``environ``, and the golden pair."""
    (tmp_path / "tower.json").write_text(json.dumps(_tower_levels()), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hyperpoly.__file__)),
               **environ)
    want = GOLDEN[name]
    proc = subprocess.run([sys.executable, "-m", "hyperpoly.cli", *want["argv"]],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    return (proc.returncode, proc.stdout), (want["exit"], want["stdout"].encode("utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cli_corpus_in_fresh_processes(name, tmp_path):
    got, want = _replay_in_a_fresh_process(name, tmp_path)
    assert got == want


# every setting comes from the command line: a horizon-like variable in the
# environment, well-formed or not, changes no command's bytes or exit code
@pytest.mark.parametrize("value", ["8", "zero"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cli_corpus_ignores_the_environment(name, value, tmp_path):
    got, want = _replay_in_a_fresh_process(name, tmp_path, HYPERPOLY_HORIZON=value)
    assert got == want


# -- cold start: a fresh process loads only the modules its command runs -------

# run in a fresh interpreter: imports hyperpoly, runs one command line through
# cli.main, and prints the hyperpoly submodules loaded after each step
_LOADED_MODULES = """
import contextlib, io, json, sys
def loaded():
    return sorted(m.split(".")[1] for m in sys.modules if m.startswith("hyperpoly."))
import hyperpoly
after_import = loaded()
from hyperpoly import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([after_import, code, loaded()]))
"""


@pytest.mark.parametrize("argv,needed,unneeded", [
    (("kochen",), {"filters"}, {"interpoly", "classify"}),
    (("classify", "X"), {"classify"}, {"leibniz", "stdpart", "genpoint", "completion", "filters"}),
    (("eval", "X", "--at", "2"), {"interpoly"}, {"classify"}),
], ids=["kochen", "classify", "eval"])
def test_command_loads_only_its_modules(argv, needed, unneeded):
    src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    after_import, code, loaded = json.loads(proc.stdout)
    assert after_import == []
    assert code == EXIT_OK
    assert needed <= set(loaded)
    assert not unneeded & set(loaded)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_command_loads_no_dataclasses_or_inspect(name, tmp_path):
    # the records are plain classes: no command pays for building dataclasses
    (tmp_path / "tower.json").write_text(json.dumps(_tower_levels()), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hyperpoly.__file__)))
    want = GOLDEN[name]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "hyperpoly.cli",
                           *want["argv"]], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == want["exit"]
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "hyperpoly.verdicts" in imported     # the log lists the package's modules
    assert not {"dataclasses", "inspect"} & imported


# run in a fresh interpreter: the modules that importing hyperpoly and running
# each command line (one JSON list per argument) add to those loaded at start-up
_ADDED_MODULES = """
import contextlib, io, json, sys
before = set(sys.modules)
import hyperpoly
from hyperpoly import cli
codes = []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(json.loads(argv)))
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""


def test_corpus_loads_only_the_standard_library(tmp_path):
    # dependencies = []: whatever a command runs comes from the package or the
    # standard library (start-up's own site imports are not counted)
    (tmp_path / "tower.json").write_text(json.dumps(_tower_levels()), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hyperpoly.__file__)))
    argvs = [json.dumps(GOLDEN[name]["argv"]) for name in sorted(GOLDEN)]
    proc = subprocess.run([sys.executable, "-c", _ADDED_MODULES, *argvs], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, added = json.loads(proc.stdout)
    assert codes == [GOLDEN[name]["exit"] for name in sorted(GOLDEN)]
    assert [m for m in added if m.split(".")[0] not in sys.stdlib_module_names
            and m.split(".")[0] != "hyperpoly"] == []


# -- a grammar-driven fuzz: every command answers with one JSON line -----------

ATOMS = ["X", "Y", "Z", "dX", "dY", "i", "1/i", "2", "3/4", "eps", "i!", "2^i", "d", "k"]
SUMS = st.builds(
    "sum(k={}..{}, {}*X^k)".format,
    st.sampled_from(["0", "1"]), st.sampled_from(["2", "d"]),
    st.sampled_from(["1", "k", "1/k!", "eps", "1/i", "2^i", "k*eps"]),
)
EXPRESSIONS = st.recursive(
    st.sampled_from(ATOMS) | SUMS,
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, st.sampled_from(["0", "1", "2", "3", "i", "k"])),
    ),
    max_leaves=8,
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(f=EXPRESSIONS, g=EXPRESSIONS)
def test_fuzzed_commands_answer_with_one_json_line(tmp_path_factory, f, g):
    levels = tmp_path_factory.mktemp("fuzz") / "levels.json"
    levels.write_text(json.dumps(["1", f]), encoding="utf-8")
    f = "eps := 1/i; " + f
    for argv in (
        ("classify", f), ("stdpart", f, "--order", "3"), ("delta", f), ("phi", f),
        ("derivation-check", f, g), ("eval", f, "--at", "2"),
        ("generic", "--param", f"X -> ({g}, 1)", "--indices", "1..2"),
        ("lift", "--field", "q", "--levels", str(levels)),
    ):
        code, out = run_cli(*argv)
        assert code in (EXIT_OK, EXIT_ERROR, EXIT_UNDETERMINED), argv
        assert out.count("\n") == 1 and out.endswith("\n"), argv
        json.loads(out)
