"""Grammar, diagnostics, round trips, and the AST-to-semantics bridge."""

from fractions import Fraction as Q

import pytest

from hyperpoly.hypernat import HyperNatural
from hyperpoly.parser import (
    BindError,
    Bindings,
    ParseError,
    bind_declarations,
    build_diff_element,
    build_hypernat,
    build_poly,
    build_poly_in,
    build_sequence,
    parse,
    parse_expression,
    print_program,
    variable_map,
)


class TestGrammar:
    def test_simple_sum_parses(self):
        p = parse("sum(k=0..d, X^k / k!)")
        assert p.command is None
        assert p.expression is not None

    def test_declaration_and_command(self):
        p = parse("eps := 1/i; classify eps*X")
        assert p.declarations[0][0] == "eps"
        assert p.command == "classify"

    def test_syntax_error_position_and_expectation(self):
        with pytest.raises(ParseError) as e:
            parse("X^")
        assert e.value.col == 3
        assert "nat" in e.value.expected

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(X + 1")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse("X @ 2")

    def test_derivation_check_command_word(self):
        p = parse("derivation-check X")
        assert p.command == "derivation-check"


class TestRoundTrip:
    CORPUS = [
        "sum(k=0..d, X^k / k!)",
        "eps := 1/i; eps*X",
        "(2*i+1)/(i+2)",
        "3 + 1/i",
        "X^2 + 2*X + 1",
        "omega := i; omega*X - Y",
        "i!",
        "sum(k=1..12, X^k * k)",
        "X*dX + dX^2",
        "1/2 * X",
        "d := 2*i+3; sum(k=0..d, X^k/k!)",
        "-X + 1",
        "X - (-Y)",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_print_parse_round_trip(self, text):
        first = parse(text)
        printed = print_program(first)
        second = parse(printed)
        assert first == second


class TestSequences:
    def test_basic_sequences(self):
        env = Bindings.empty()
        e = build_sequence(parse_expression("(2*i+1)/(i+2)"), env)
        assert e.eval(10) == Q(21, 12)
        assert build_sequence(parse_expression("i!"), env).eval(4) == 24

    def test_declared_names(self):
        env = bind_declarations(parse("eps := 1/i; omega := i; eps"))
        assert env.sequences["eps"].eval(5) == Q(1, 5)
        assert env.sequences["omega"].eval(5) == 5

    def test_unbound_name(self):
        with pytest.raises(BindError):
            build_sequence(parse_expression("nope + 1"), Bindings.empty())


class TestHypernats:
    def test_affine_forms(self):
        env = Bindings.empty()
        assert build_hypernat(parse_expression("2*i+3"), env).value(5) == 13
        assert build_hypernat(parse_expression("7"), env).value(3) == 7

    def test_nonaffine_rejected(self):
        with pytest.raises(BindError):
            build_hypernat(parse_expression("i*i"), Bindings.empty())


class TestPolynomials:
    def test_truncated_exp_from_grammar(self):
        env = bind_declarations(parse("d := i; 0"))
        p = build_poly(parse_expression("sum(k=0..d, X^k / k!)"), env)
        assert p.materialize(3)[(2,)] == (Q(1, 2), Q(0))
        from hyperpoly.classify import classify_poly

        assert classify_poly(p).verdict == "bounded"

    def test_eps_band(self):
        env = bind_declarations(parse("d := i; eps := 1/i; 0"))
        p = build_poly(parse_expression("sum(k=0..d, eps^k * X^k / i)"), env)
        assert p.materialize(4)[(2,)] == (Q(1, 64), Q(0))

    def test_scalar_times_variable(self):
        env = bind_declarations(parse("eps := 1/i; 0"))
        p = build_poly(parse_expression("eps * X"), env)
        assert p.materialize(8)[(1,)] == (Q(1, 8), Q(0))

    def test_multivariate(self):
        p = build_poly(parse_expression("X*Y - Z^2"), Bindings.empty())
        assert p.n == 3
        assert p.materialize(2) == {(1, 1, 0): (Q(1), Q(0)), (0, 0, 2): (Q(-1), Q(0))}

    def test_one_variable_map_for_several_expressions(self):
        f, g = parse_expression("Y^2"), parse_expression("X*Y")
        variables = variable_map([f, g])
        assert variables == {"X": 0, "Y": 1}
        assert build_poly_in(f, Bindings.empty(), variables).materialize(1) == {
            (0, 2): (Q(1), Q(0))}
        assert variable_map([parse_expression("2")]) == {"X": 0}

    def test_band_in_multivariate_context_rejected(self):
        env = bind_declarations(parse("d := i; 0"))
        with pytest.raises(BindError):
            build_poly(parse_expression("Y * sum(k=0..d, X^k/k!)"), env)


class TestDiffElements:
    def test_dx_square(self):
        d = build_diff_element(parse_expression("2*X*dX + dX^2"), Bindings.empty())
        assert d.n == 1
        assert d.linear_slice(0).materialize(3) == {(1,): (Q(2), Q(0))}
        assert d.slices[(2,)].materialize(3) == {(0,): (Q(1), Q(0))}

    def test_mixed_variables(self):
        d = build_diff_element(parse_expression("X*dY + Y*dX + dX*dY"), Bindings.empty())
        assert d.n == 2
        assert d.linear_slice(0).materialize(2) == {(0, 1): (Q(1), Q(0))}
        assert d.linear_slice(1).materialize(2) == {(1, 0): (Q(1), Q(0))}
