"""The Gaussian-integer evaluation kernel against term-by-term Fraction loops.

The reference functions below are the rational-arithmetic evaluators the
kernel replaced, kept here only as the specification: every value the kernel
produces must equal theirs exactly.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.classify import _oracle_points
from hyperpoly.exacteval import evaluate, integer_form
from hyperpoly.families import labeled_family
from hyperpoly.hypernat import HyperNatural
from hyperpoly.hypernum import HyperComplex
from hyperpoly.indexexpr import IndexExpr
from hyperpoly.interpoly import (
    LazyPoly,
    ProductPoly,
    StructuredPoly,
    TailTerm,
    dehomogenize,
    homogenize,
    partial_derivative,
    truncated_exp,
    variable,
    zero_poly,
)

I = IndexExpr.index
D_I = HyperNatural.identity()


# ---------------------------------------------------------------------------
# reference evaluators: plain Fraction arithmetic, one operation at a time
# ---------------------------------------------------------------------------

def _pair_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _pair_pow(a, k):
    out = (Q(1), Q(0))
    for _ in range(k):
        out = _pair_mul(out, a)
    return out


def reference_eval_exact(p, i, point):
    total = (Q(0), Q(0))
    powers = [dict() for _ in range(p.n)]
    for nu, c in p.materialize(i).items():
        term = c
        for var, k in enumerate(nu):
            if k:
                if k not in powers[var]:
                    powers[var][k] = _pair_pow(point[var], k)
                term = _pair_mul(term, powers[var][k])
        total = (total[0] + term[0], total[1] + term[1])
    return total


def reference_window_squared(p, pt, horizon):
    """|P_i(pt)|^2 for i in the window, with point powers computed once."""
    mats = []
    max_exp = [0] * p.n
    for i in range(1, horizon + 1):
        try:
            mat = p.materialize(i)
        except ZeroDivisionError:
            continue
        mats.append(mat)
        for nu in mat:
            for var, e in enumerate(nu):
                if e > max_exp[var]:
                    max_exp[var] = e
    tables = []
    for var in range(p.n):
        tbl = [(Q(1), Q(0))]
        for _ in range(max_exp[var]):
            a, b = tbl[-1]
            c, d = pt[var]
            tbl.append((a * c - b * d, a * d + b * c))
        tables.append(tbl)
    out = []
    for mat in mats:
        total_re, total_im = Q(0), Q(0)
        for nu, coeff in mat.items():
            re, im = coeff
            for var, e in enumerate(nu):
                if e:
                    c, d = tables[var][e]
                    re, im = re * c - im * d, re * d + im * c
            total_re += re
            total_im += im
        out.append(total_re * total_re + total_im * total_im)
    return out


def materialized_window(p, horizon):
    out = []
    for i in range(1, horizon + 1):
        try:
            p.materialize(i)
        except ZeroDivisionError:
            continue
        out.append(i)
    return out


def kernel_window(p, pt, horizon):
    """Exact values (re, im) and |value|^2 as the oracle builds them."""
    mats = [p.materialize(i) for i in materialized_window(p, horizon)]
    triples = evaluate(integer_form(mats, p.n), pt)
    values = [(Q(re, den), Q(im, den)) for re, im, den in triples]
    squared = [Q(re * re + im * im, den * den) for re, im, den in triples]
    return values, squared


def assert_window_matches(p, points, horizon, pairs=True):
    """Squared values against the old window loop; with ``pairs``, the
    values themselves against the old ``eval_exact`` too (slower)."""
    for pt in points:
        values, squared = kernel_window(p, pt, horizon)
        assert squared == reference_window_squared(p, pt, horizon)
        if pairs:
            assert values == [reference_eval_exact(p, i, pt)
                              for i in materialized_window(p, horizon)]


# ---------------------------------------------------------------------------
# the oracle window on labeled families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [101, 202])
def test_window_matches_reference_on_labeled_family(seed):
    for _, p in labeled_family(seed, 200):
        assert_window_matches(p, _oracle_points(p.n, Q(3, 2), 1, 7), 12, pairs=False)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), radius=st.sampled_from([1, 2, Q(7, 3)]))
def test_window_matches_reference_on_drawn_families(seed, radius):
    for _, p in labeled_family(seed, 6):
        assert_window_matches(p, _oracle_points(p.n, Q(radius), 2, seed), 12, pairs=False)


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------

def _bivariate():
    return StructuredPoly(2, HyperNatural.constant(4), {
        (0, 0): HyperComplex.from_rational(Q(1, 6)),
        (2, 1): HyperComplex.from_rational(Q(-3, 4), Q(2, 9)),
        (0, 3): HyperComplex.from_expr(1 / I()),
        (1, 0): HyperComplex.from_rational(0, Q(5, 7)),
    })


def test_variables_with_different_denominators():
    p = _bivariate()
    pt = ((Q(1, 3), Q(-2, 7)), (Q(5, 11), Q(1, 2)))
    for i in range(1, 6):
        assert p.eval_exact(i, pt) == reference_eval_exact(p, i, pt)
    assert_window_matches(p, [pt], 6)


def test_zero_coordinates():
    p = _bivariate()
    points = [((Q(0), Q(0)), (Q(0), Q(0))),
              ((Q(0), Q(0)), (Q(2, 3), Q(-1, 5))),
              ((Q(0), Q(4, 9)), (Q(7), Q(0)))]
    assert_window_matches(p, points, 5)


def test_integer_coordinates():
    p = truncated_exp(D_I)
    assert p.eval_exact(6, ((2, -1),)) == reference_eval_exact(p, 6, ((2, -1),))


def test_zero_polynomial():
    p = zero_poly(2)
    pt = ((Q(1, 3), Q(1)), (Q(-2), Q(5, 8)))
    assert p.eval_exact(3, pt) == (Q(0), Q(0))
    assert kernel_window(p, pt, 4) == ([(Q(0), Q(0))] * 4, [Q(0)] * 4)
    assert_window_matches(p, [pt], 4)


def _pole_at_index_2():
    # psi = 1/(i - 2) has no value at i = 2, so P_2 does not materialize
    band = TailTerm((IndexExpr.const(1),), psi_re=1 / (I() - 2))
    return StructuredPoly(1, D_I, tails=(band,))


def test_index_that_does_not_materialize():
    p = _pole_at_index_2()
    pt = ((Q(2, 5), Q(-1, 3)),)
    with pytest.raises(ZeroDivisionError):
        p.eval_exact(2, pt)
    assert materialized_window(p, 6) == [1, 3, 4, 5, 6]
    assert_window_matches(p, [pt], 6)


def test_arity_mismatch_refused():
    with pytest.raises(ValueError):
        variable(2, 0).eval_exact(1, ((Q(1), Q(0)),))
    with pytest.raises(ValueError):
        evaluate(integer_form([{(1,): (Q(1), Q(0))}], 1), ())


# ---------------------------------------------------------------------------
# eval_exact across representations
# ---------------------------------------------------------------------------

def _representations():
    band = TailTerm((IndexExpr.const(1),), psi_re=Q(1, 3) + 1 / I(),
                    psi_im=IndexExpr.const(Q(-1, 2)))
    geom = StructuredPoly(1, D_I, tails=(band,))
    exp = truncated_exp(D_I)
    return [
        geom,
        exp,
        ProductPoly(exp, geom),
        ProductPoly(_bivariate(), _bivariate()),
        dehomogenize(homogenize(exp)),
        partial_derivative(ProductPoly(exp, geom), (1,)),
        LazyPoly(1, D_I, lambda i: {(k,): (Q(k, i), Q(-1, k + 1)) for k in range(i + 1)}),
    ]


def test_eval_exact_matches_reference_across_representations():
    for p in _representations():
        for pt in _oracle_points(p.n, Q(5, 4), 3, 11):
            for i in (1, 4, 9):
                assert p.eval_exact(i, pt) == reference_eval_exact(p, i, pt)
