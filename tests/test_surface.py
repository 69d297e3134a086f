"""Cross-module surface checks: public API, exit codes, stated invariants."""

import argparse
import ast
import glob
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as Q

import pytest

import hyperpoly
from hyperpoly import (
    HyperComplex,
    HyperNatural,
    IndexExpr,
    classify_poly,
    sampling_oracle,
    st_poly,
)
from hyperpoly.classify import INFINITESIMAL
from hyperpoly.cli import EXIT_OK, EXIT_UNDETERMINED, build_arg_parser, main, run
from hyperpoly.families import labeled_family
from hyperpoly.interpoly import (
    scalar_mul,
    theta,
    truncated_exp,
    truncated_geometric,
    variable,
)
from hyperpoly.leibniz import DiffElement, delta
from hyperpoly.interpoly import constant as const_poly


class TestModuleAliases:
    def test_classify_and_st_aliases(self):
        assert HyperComplex.epsilon().classify().label == "infinitesimal"

    def test_version_and_exports(self):
        assert hyperpoly.__version__
        for name in ("eventually", "theta", "lift_tower", "generic_point", "parse"):
            assert hasattr(hyperpoly, name)


# the 63 names ``hyperpoly`` re-exports, by the module that defines each
PUBLIC = {
    "verdicts": ("HORIZON", "Verdict", "eventually"),
    "filters": ("FiniteFilterModel", "ProductRing", "enumerate_filters", "is_ultrafilter",
                "kochen_filter_to_ideal", "kochen_ideal_to_filter"),
    "indexexpr": ("IndexExpr",),
    "hypernat": ("HyperNatural",),
    "hypernum": ("HyperComplex",),
    "interpoly": ("InternalPolynomial", "InternalSeries", "StructuredPoly", "TailTerm",
                  "TopTerm", "partial_derivative", "poly_add", "poly_compose", "poly_eval",
                  "poly_mul", "scalar_mul", "theta", "truncate_series", "truncated_exp",
                  "truncated_geometric"),
    "classify": ("Certificate", "PolyClass", "cauchy_all_coefficients", "classify_poly",
                 "coefficient_bound_check", "sampling_oracle"),
    "stdpart": ("AlgebraPresentation", "StandardPowerSeries", "lift_series", "st_functor",
                "st_morphism", "st_poly", "zero_set_compare"),
    "completion": ("FieldPoly", "LiftedTower", "ResidueTower",
                   "finite_field_surjectivity_check", "lift_tower"),
    "leibniz": ("DiffElement", "OneForm", "delta", "derivation_check", "in_I", "in_I2",
                "infinitesimal_factor", "phi"),
    "genpoint": ("LazyHyperPoint", "Parametrization", "evaluation_embedding_check",
                 "generic_point", "id_of_point", "integer_poly_corpus",
                 "nullstellensatz_witness", "v_of_ideal"),
    "parser": ("parse", "print_program"),
}

# run in a fresh interpreter, where every name below is still unresolved:
# prints the names that do not resolve to their home module's object, both
# as an attribute and through ``from hyperpoly import``
_FRESH_LOOKUPS = """
import importlib, json, sys
import hyperpoly
wrong = []
for module, names in json.loads(sys.argv[1]).items():
    for name in names:
        home = getattr(importlib.import_module("hyperpoly." + module), name)
        scope = {}
        exec("from hyperpoly import " + name, scope)
        if getattr(hyperpoly, name) is not home or scope[name] is not home:
            wrong.append(name)
print(json.dumps(wrong))
"""


def _fresh_python(*args):
    src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)


class TestPublicSurface:
    def test_each_name_resolves_in_a_fresh_interpreter(self):
        proc = _fresh_python("-c", _FRESH_LOOKUPS, json.dumps(PUBLIC))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_dir_lists_every_name(self):
        public = {name for names in PUBLIC.values() for name in names}
        assert len(public) == 63
        assert set(hyperpoly.__all__) == public  # a removed name cannot linger in the table
        listed = set(dir(hyperpoly))
        assert public <= listed
        assert "__version__" in listed

    def test_submodule_import_yields_the_module(self):
        proc = _fresh_python("-c", "from hyperpoly import classify; print(classify.__name__)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "hyperpoly.classify\n"

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'hyperpoly' has no attribute 'nope'$"):
            hyperpoly.nope
        with pytest.raises(ImportError, match="cannot import name 'nope' from 'hyperpoly'"):
            exec("from hyperpoly import nope", {})


D_I = HyperNatural.identity()


def _row_difference(p, q, i):
    want = dict(p.materialize(i))
    for nu, (re, im) in q.materialize(i).items():
        old = want.get(nu, (Q(0), Q(0)))
        want[nu] = (old[0] - re, old[1] - im)
    return {nu: c for nu, c in want.items() if c != (Q(0), Q(0))}


def _theta_sum(p, q):
    s = theta(p) + theta(q)
    return [s.coeff((k,)).value_exact(i) for k in range(6) for i in range(1, 9)]


def _row_sum(p, q):
    zero = (Q(0), Q(0))
    return [tuple(a + b for a, b in zip(p.materialize(i).get((k,), zero),
                                        q.materialize(i).get((k,), zero)))
            for k in range(6) for i in range(1, 9)]


# the reflected and scaled operators of the public numeric types, each against
# the index-by-index value it must have
OPERATORS = {
    "IndexExpr.__rsub__": lambda: ([(1 - IndexExpr.index()).eval(i) for i in range(1, 9)],
                                   [1 - i for i in range(1, 9)]),
    "HyperComplex.__rsub__": lambda: (
        [(1 - HyperComplex.epsilon()).value_exact(i) for i in range(1, 9)],
        [(1 - Q(1, i), Q(0)) for i in range(1, 9)]),
    "InternalPolynomial.__sub__": lambda: (
        [(truncated_exp(D_I) - truncated_geometric(D_I)).materialize(i) for i in range(1, 9)],
        [_row_difference(truncated_exp(D_I), truncated_geometric(D_I), i)
         for i in range(1, 9)]),
    "HyperNatural.__rmul__": lambda: (2 * HyperNatural(1, 3), HyperNatural(2, 6)),
    "HyperNatural.__str__": lambda: (str(HyperNatural(2, -1)), "[2*i-1]"),
    "InternalSeries.__add__": lambda: (_theta_sum(truncated_exp(D_I), truncated_geometric(D_I)),
                                       _row_sum(truncated_exp(D_I), truncated_geometric(D_I))),
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_operator_completes_its_protocol(name):
    got, want = OPERATORS[name]()
    assert got == want


class TestOracleSymbolicWitness:
    def test_omega_x_fails_at_radius_1(self):
        P = scalar_mul(HyperComplex.omega(), variable(1, 0))
        rep = sampling_oracle(P, sample_count=4, radius=1, horizon=24)
        assert rep.bounded.fails()
        assert rep.witness is not None


class TestCliContracts:
    def test_exit_2_on_undetermined_eval(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["eval", "sum(k=0..d, X^k)", "--d", "i", "--at", "2"])
        assert code == EXIT_UNDETERMINED
        assert json.loads(buf.getvalue())["classification"]["class"] == "undetermined"

    def test_run_program_text(self):
        report, code = run("eps := 1/i; classify eps*X")
        assert code == EXIT_OK
        assert report["verdict"] == "infinitesimal"

    def test_geometric_base_in_grammar(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["classify", "c := (0-1)^i; c*X"])
        assert code == EXIT_OK
        assert json.loads(buf.getvalue())["verdict"] == "bounded"


def _command_parsers() -> dict:
    (sub,) = [a for a in build_arg_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _accepted(parser) -> set:
    """The arguments a command parser accepts: positionals by name, options
    by their flag, ``--help`` left out."""
    return {a.option_strings[0] if a.option_strings else a.dest
            for a in parser._actions if a.dest != "help"}


class TestCliFlagSurface:
    def test_settable_values(self):
        # argparse destinations over the subcommands, positionals and --pretty included
        assert sum(len(_accepted(p)) for p in _command_parsers().values()) == 47

    def test_readme_table_matches_the_parser(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        table = text.split("| Command | Arguments it accepts |\n|---|---|\n")[1].split("\n\n")[0]
        rows = {}
        for line in table.splitlines():
            command, args = line.strip("|").split("|")
            rows[command.strip().strip("`")] = set(re.findall(r"`([^`]+)`", args)) | {"--pretty"}
        parsers = _command_parsers()
        assert rows.keys() == parsers.keys()
        for name, parser in parsers.items():
            assert rows[name] == _accepted(parser), name


class TestRingLawsPointwise:
    def test_hypercomplex_ring_laws_at_32_indices(self):
        rng = random.Random(9)
        pool = [
            HyperComplex.epsilon(),
            HyperComplex.omega(),
            HyperComplex.from_rational(Q(3, 2), Q(-1, 3)),
            HyperComplex.from_expr((2 * IndexExpr.index() + 1) / (IndexExpr.index() + 2)),
            HyperComplex.from_expr(IndexExpr.geometric(-1)),
        ]
        for _ in range(10):
            x, y, z = (rng.choice(pool) for _ in range(3))
            indices = [rng.randint(1, 200) for _ in range(32)]
            for i in indices:
                lhs = ((x + y) * z).value_exact(i)
                rhs = (x * z + y * z).value_exact(i)
                assert lhs == rhs
                assert (x * y).value_exact(i) == (y * x).value_exact(i)
            # symbolic normal-form equality on top of the samples
            assert ((x + y) * z).re.eq((x * z + y * z).re)
            assert ((x + y) * z).im.eq((x * z + y * z).im)


class TestStKernel:
    def test_st_zero_iff_infinitesimal_on_decided_family(self):
        from hyperpoly.interpoly import multi_indices_of_degree

        for label, poly in labeled_family(seed=33, count=60):
            cls = classify_poly(poly)
            if not cls.bounded:
                continue
            s = st_poly(poly, cls)
            vanishes = all(
                s.coeff(nu) == (0, 0)
                for m in range(13)
                for nu in multi_indices_of_degree(poly.n, m)
            )
            if cls.verdict == INFINITESIMAL:
                assert vanishes
            else:
                assert not vanishes


class TestDnClosure:
    def test_products_and_sums_stay_certified(self):
        f = delta(const_poly(1, 1) + variable(1, 0) * variable(1, 0))
        g = delta(variable(1, 0))
        for elem in (f + g, f * g, f - g):
            assert elem.dn_certificate() is None

    def test_derivative_slices_stay_certified(self):
        from hyperpoly.interpoly import partial_derivative

        f = delta(variable(1, 0) * variable(1, 0))
        derived = DiffElement(
            1, {mu: partial_derivative(s, (1,)) for mu, s in f.slices.items()}
        )
        assert derived.dn_certificate() is None


# names with no caller in the program that stay on purpose, each with its reason
KEPT = (
    ("moving_monomial", "test helper for moving-top monomials; moving it only relocates lines"),
    ("polys_equal_at", "test helper for indexwise polynomial equality"),
    ("truncated_geometric", "test fixture for the geometric band, as moving_monomial is"),
    ("from_generator", "constructor of the public HyperComplex class"),
    ("epsilon", "constructor of the public HyperComplex class"),
    ("omega", "constructor of the public HyperComplex class"),
    ("st_morphism", "the README's stdpart bullet: standard parts of substitution morphisms"),
    ("st_functor", "the README's stdpart bullet: the functor on finite algebra presentations"),
    ("poly_compose", "builds the composite in st_morphism's functoriality test"),
    ("kochen_filter_to_ideal", "the README's filters bullet: the exhaustive ideal/filter "
                               "dictionary, of which it is the filter-to-ideal half"),
    ("id_of_point", "the paper's I(x), one half of the pair that defines a generic point"),
    ("v_of_ideal", "the paper's V(I), the other half of that pair"),
)


def uncalled_definitions(root: str, kept: set) -> tuple[list, list]:
    """The functions, methods and classes of ``src/hyperpoly`` under ``root``
    whose name is not in ``kept`` and appears, as a whole word, only at its
    own definitions across the package (less ``__init__.py``, whose export
    table names no caller), the benchmark harness, the acceptance criteria and
    the README; and the ``kept`` names that name no such definition."""
    package = [path for path in sorted(glob.glob(os.path.join(root, "src", "hyperpoly", "*.py")))
               if os.path.basename(path) != "__init__.py"]
    corpus = package + sorted(glob.glob(os.path.join(root, "perfbench", "*.py"))) + [
        os.path.join(root, "tests", "test_acceptance.py"), os.path.join(root, "README.md")]
    texts = []
    for path in corpus:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    text = "\n".join(texts)
    defined: dict = {}
    for source in texts[:len(package)]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = defined.get(node.name, 0) + 1
    uncalled = sorted(
        name for name, count in defined.items()
        if not (name.startswith("__") and name.endswith("__")) and name not in kept
        and len(re.findall(rf"\b{re.escape(name)}\b", text)) <= count)
    return uncalled, sorted(kept - defined.keys())


class TestNoCodeWithoutACaller:
    def test_every_definition_is_named_outside_itself(self):
        """A name with no caller but the unit tests goes, or gets a ``KEPT``
        reason (being public is none), and a reason cannot outlive the
        definition it excuses."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        uncalled, stale = uncalled_definitions(root, {name for name, _ in KEPT})
        assert not uncalled, "no caller outside the unit tests: " + ", ".join(uncalled)
        assert not stale, "KEPT names no definition: " + ", ".join(stale)


class TestNoAmbientState:
    def test_no_module_reads_the_environment(self):
        """Every setting comes from the command line or a call's arguments, so
        the same argv prints the same bytes whatever the environment holds."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        reads = []
        for path in sorted(glob.glob(os.path.join(root, "src", "hyperpoly", "*.py"))):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name)
                        else None)
                imported = isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    a.name in ("environ", "getenv") for a in node.names)
                if name in ("environ", "getenv") or imported:
                    reads.append(f"{os.path.basename(path)}:{node.lineno}")
        assert not reads, "reads the environment: " + ", ".join(reads)
