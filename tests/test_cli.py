"""Command dispatch, exit codes, JSON schema, and byte determinism."""

import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    (("generic", "--param", "t -> (, 0)"),  # new
     "cannot read None as a polynomial"),
    (("generic", "--param", "i -> (i!, 0)"),  # new
     "'i' is a polynomial variable here, not the index"),
    (("generic", "--param", "i -> (1/i, 0)"),  # new
     "'i' is a polynomial variable here, not the index"),
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
], ids=["index", "unbound", "band-in-two-variables"])
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
    monkeypatch.delenv("HYPERPOLY_HORIZON", raising=False)
    want = GOLDEN[name]
    code, out = run_cli(*want["argv"])
    assert (code, out) == (want["exit"], want["stdout"])


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
