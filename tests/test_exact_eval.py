"""The Gaussian-integer kernel against term-by-term Fraction loops.

The reference functions below are the rational-arithmetic evaluators and
convolutions the kernel replaced, kept here only as the specification: every
value the kernel produces must equal theirs exactly, and every table it
builds must list its keys in their order.
"""

import hashlib
import itertools
import random
from fractions import Fraction as Q
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import interpoly
from hyperpoly.classify import _oracle_points, classify_poly, sampling_oracle
from hyperpoly.exacteval import (dot, evaluate, fraction_table, multiply_rows, part,
                                 parts_of_row, row_of_parts)
from hyperpoly.families import labeled_family, random_bounded_pair
from hyperpoly.hypernat import HyperNatural
from hyperpoly.hypernum import HyperComplex
from hyperpoly.indexexpr import IndexExpr
from hyperpoly.interpoly import (
    LazyPoly,
    ProductPoly,
    StructuredPoly,
    TailTerm,
    TopTerm,
    mi_sub,
    multi_indices_of_degree,
    partial_derivative,
    poly_add,
    poly_mul,
    scalar_mul,
    theta,
    truncate_series,
    truncated_exp,
    variable,
    zero_poly,
)
from hyperpoly.stdpart import StandardPowerSeries, st_morphism, st_poly

I = IndexExpr.index
D_I = HyperNatural.identity()


def early(re, im=None, values=None):
    """``re + i im`` that reads ``values`` ({index: pair}) at those indices:
    a value rule below the last of them, and the expressions everywhere else."""
    im = IndexExpr.const(0) if im is None else im
    return HyperComplex(re, im, max(values) + 1,
                        lambda i: values[i] if i in values else (re.eval(i), im.eval(i)))


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
    rows = [p.row(i) for i in materialized_window(p, horizon)]
    triples = evaluate(rows, pt)
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
# band values: running integer powers against three Fraction products
# ---------------------------------------------------------------------------

def reference_values(t, degrees, i):
    """``phi(m) * eps(i) ** m * psi(i)``, read in the order of the band rule."""
    for m in degrees:
        f = t.phi_at(m) * t.eps.eval(i) ** m
        yield m, (f * t.psi_re.eval(i), f * t.psi_im.eval(i))


def as_pairs(values):
    """``TailTerm.values``'s integer ``(m, re, im, den)`` as ``(m, (re / den, im / den))``."""
    for m, re, im, den in values:
        yield m, (Q(re, den), Q(im, den))


def as_integers(values):
    """``(m, (re, im))`` of ``Fraction``s in the integer layout of ``TailTerm.values``."""
    for m, (re, im) in values:
        yield (m, re.numerator * im.denominator, im.numerator * re.denominator,
               re.denominator * im.denominator)


def _drain(thunk):
    """``repr`` of what ``thunk()`` yields, up to and including its error."""
    out = []
    try:
        for item in thunk():
            out.append(item)
    except ZeroDivisionError as e:
        out.append(e)
    return repr(out)


def assert_band_values_match(make, indices=range(1, 8)):
    """The bands of ``make()`` and each materialization, keys in order,
    against a fresh ``make()`` under the reference rule."""
    got = make()
    with patch.object(TailTerm, "values",
                      lambda t, degrees, i: as_integers(reference_values(t, degrees, i))):
        want = [[_drain(lambda: [p.materialize(i)]) for i in indices] for p in make()]
    assert [[_drain(lambda: [p.materialize(i)]) for i in indices] for p in got] == want
    for p in got:
        for t in getattr(p, "tails", ()):
            for i in indices:
                for degrees in (range(0, 10), range(3, 8), range(4, 4)):
                    assert _drain(lambda: as_pairs(t.values(degrees, i))) == _drain(
                        lambda: reference_values(t, degrees, i))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_band_values_match_reference_on_drawn_families(seed):
    def make():
        rng = random.Random(seed)
        polys = [p for _, p in labeled_family(seed, 8)]
        for _ in range(3):
            p, q = random_bounded_pair(rng)
            polys += [p, q, poly_add(p, q)]
        return polys
    assert_band_values_match(make)


_PHIS = [(IndexExpr.const(1),), (I() - 2,), (1 / IndexExpr.factorial(),),
         (IndexExpr.const(1), IndexExpr.const(0), IndexExpr.const(-1), IndexExpr.const(0)),
         (1 / (I() - 3),)]
# a negative ratio, eps(1) = 0 (so only degree 0 lives there), a pole at i = 2
_EPSS = [IndexExpr.const(Q(-3, 2)), I() - 1, 1 / I(), IndexExpr.geometric(Q(2, 3)),
         1 / (I() - 2)]
_PSIS = [IndexExpr.const(1), I(), IndexExpr.geometric(-2), IndexExpr.const(Q(-5, 7)),
         1 / ((I() - 1) * (I() - 2))]


@settings(max_examples=40, deadline=None)
@given(phi=st.sampled_from(_PHIS), eps=st.sampled_from(_EPSS), psi=st.sampled_from(_PSIS),
       lo=st.sampled_from([None, HyperNatural.constant(1)]))
def test_band_values_match_reference_on_hand_built_bands(phi, eps, psi, lo):
    def make():
        band = TailTerm(phi, eps, psi, IndexExpr.const(0), lo)
        p = StructuredPoly(1, D_I, tails=(band,))
        short = StructuredPoly(1, HyperNatural.constant(2), {
            (0,): HyperComplex.from_rational(Q(1, 3)),
            (2,): HyperComplex(IndexExpr.const(2), 1 / I()),
        })
        return [
            p,
            StructuredPoly(2, D_I, tails=(band,)),
            scalar_mul(HyperComplex(IndexExpr.const(0), IndexExpr.const(1)), p),
            poly_mul(p, short),   # psi / eps^k tails
            partial_derivative(p, (1,)),
            partial_derivative(p, (2,)),
        ]
    assert_band_values_match(make)


def one_term(t, m, i):
    """The band's value at degree ``m`` and index ``i``, read as a one-term range."""
    ((_, value),) = as_pairs(t.values(range(m, m + 1), i))
    return value


def test_band_value_is_the_one_term_range():
    t = TailTerm((IndexExpr.const(1),), I() - 1, I())
    # eps(1) = 0: degree 0 keeps 0^0 = 1, higher degrees vanish
    assert one_term(t, 0, 1) == (Q(1), Q(0))
    assert list(as_pairs(t.values(range(0, 3), 1))) == [
        (0, (Q(1), Q(0))), (1, (Q(0), Q(0))), (2, (Q(0), Q(0)))]
    t = TailTerm((IndexExpr.const(1),), IndexExpr.const(Q(-3, 2)), IndexExpr.const(0),
                 IndexExpr.const(Q(2, 5)))
    assert [one_term(t, m, 1) for m in range(3)] == [
        (Q(0), Q(2, 5)), (Q(0), Q(-3, 5)), (Q(0), Q(9, 10))]


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
        evaluate([row_of_parts([part((1,), (Q(1), Q(0)))], 1)], ())


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
        partial_derivative(ProductPoly(exp, geom), (1,)),
        LazyPoly(1, D_I, lambda i: [part((k,), (Q(k, i), Q(-1, k + 1))) for k in range(i + 1)]),
    ]


def test_eval_exact_matches_reference_across_representations():
    for p in _representations():
        for pt in _oracle_points(p.n, Q(5, 4), 3, 11):
            for i in (1, 4, 9):
                assert p.eval_exact(i, pt) == reference_eval_exact(p, i, pt)


# ---------------------------------------------------------------------------
# rows: memoized once per index, and materialize as their Fraction view
# ---------------------------------------------------------------------------

ZERO = (Q(0), Q(0))


def reference_materialize(p, i):
    """``P_i`` by the ``Fraction`` rule the rows replaced: band values through
    ``reference_values``, then tops, then explicit coefficients, each key in
    the place of its first value, zeros dropped; a product convolves its
    factors' tables."""
    if isinstance(p, ProductPoly):
        out = reference_product(reference_materialize(p.p, i), reference_materialize(p.q, i))
        return {k: v for k, v in out.items() if v != ZERO}
    out = {}

    def add(nu, c):
        out[nu] = (out[nu][0] + c[0], out[nu][1] + c[1]) if nu in out else c

    for t in p.tails:
        lo = t.lo.value(i) if t.lo is not None else -1
        for m, c in reference_values(t, range(lo + 1, t.hi.value(i) + 1), i):
            if c != ZERO:
                for nu in multi_indices_of_degree(p.n, m):
                    add(nu, c)
    for t in p.tops:
        try:
            add((t.degree.value(i),), t.coeff.value_exact(i))
        except ZeroDivisionError:
            pass
    for nu, c in p.explicit.items():
        if sum(nu) <= p.degree.value(i):
            try:
                add(nu, c.value_exact(i))
            except ZeroDivisionError:
                pass
    return {k: v for k, v in out.items() if v != ZERO}


def reference_lazy_sum(p, q, i):
    out = dict(reference_materialize(p, i))
    for k, v in reference_materialize(q, i).items():
        prev = out.get(k, ZERO)
        out[k] = (prev[0] + v[0], prev[1] + v[1])
    return {k: v for k, v in out.items() if v != ZERO}


def reference_lazy_scaled(c, p, i):
    """``c * P_i``; a scalar with no value at ``i`` scales by zero."""
    try:
        cv = c.value_exact(i)
    except ZeroDivisionError:
        cv = ZERO
    out = ((k, _pair_mul(cv, v)) for k, v in reference_materialize(p, i).items())
    return {k: v for k, v in out if v != ZERO}


def reference_lazy_derivative(table, var):
    """The lazy derivative's ``Fraction`` rule on the operand's table."""
    out = {}
    for nu, c in table.items():
        if nu[var] == 0:
            continue
        new_nu = tuple(v - 1 if t == var else v for t, v in enumerate(nu))
        prev = out.get(new_nu, ZERO)
        out[new_nu] = (prev[0] + c[0] * nu[var], prev[1] + c[1] * nu[var])
    return {k: v for k, v in out.items() if v != ZERO}


def reference_truncate_series(rule, d_i, n):
    out = {}
    for m in range(d_i + 1):
        for nu in multi_indices_of_degree(n, m):
            c = rule(nu)
            out[nu] = (Q(c[0]), Q(c[1])) if isinstance(c, tuple) else (Q(c), Q(0))
    return {k: v for k, v in out.items() if v != ZERO}


def assert_view_matches(p, reference, indices=range(1, 10)):
    """``materialize(i)``'s items, in order, or its error, against ``reference(i)``."""
    for i in indices:
        assert _drain(lambda: [list(p.materialize(i).items())]) == _drain(
            lambda: [list(reference(i).items())])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_materialize_is_the_view_of_the_fraction_rule(seed):
    for _, p in labeled_family(seed, 8):
        assert_view_matches(p, lambda i: reference_materialize(p, i))
    rng = random.Random(seed)
    scalar = early(IndexExpr.const(Q(2, 3)), 1 / I(), {1: (Q(7), Q(-1))})
    for _ in range(3):
        p, q = random_bounded_pair(rng)
        for s in (poly_add(p, q), poly_mul(p, q), ProductPoly(p, q), ProductPoly(q, p)):
            assert_view_matches(s, lambda i: reference_materialize(s, i))
        prod = ProductPoly(p, q)
        lazy = poly_add(prod, q)
        assert isinstance(lazy, LazyPoly)
        assert_view_matches(lazy, lambda i: reference_lazy_sum(prod, q, i))
        scaled = scalar_mul(scalar, prod)
        assert isinstance(scaled, LazyPoly)
        assert_view_matches(scaled, lambda i: reference_lazy_scaled(scalar, prod, i))
        lowered = partial_derivative(prod, (0,) * (prod.n - 1) + (1,))
        assert isinstance(lowered, LazyPoly)
        assert_view_matches(lowered, lambda i: reference_lazy_derivative(
            reference_materialize(prod, i), prod.n - 1))
    for _, p in labeled_family(seed, 8):
        if p.tails:
            # the drawn bands over two variables: a structured derivative goes lazy there
            biv = StructuredPoly(2, p.degree, tails=p.tails)
            lowered = partial_derivative(biv, (1, 0))
            assert isinstance(lowered, LazyPoly)
            assert_view_matches(lowered, lambda i: reference_lazy_derivative(
                reference_materialize(biv, i), 0))
    values = [rng.choice([0, 1, Q(-2, 3), (Q(1, 2), Q(-1, 5)), (0, 0), (-3, Q(7, 4))])
              for _ in range(5)]
    for n, d in ((1, D_I), (2, HyperNatural.affine(1, 2))):
        rule = lambda nu: values[(sum(nu) + nu[0]) % len(values)]
        assert_view_matches(truncate_series(rule, d, n),
                            lambda i: reference_truncate_series(rule, d.value(i), n))


def test_materialize_is_the_view_with_tops_and_explicit_coefficients():
    # the explicit -X and the top -X^d cancel the band at X^1 and X^d; the
    # top 1/(i - 3) has no value at i = 3 and is left out there
    band = TailTerm((IndexExpr.const(1),), psi_re=IndexExpr.const(1))

    def tops(shift):
        """-X^d, X^(d-2)/(i - 3) and (1/2 + i*sqrt(-1)) X^(d-1) for d = i - shift."""
        return (TopTerm(HyperNatural(1, -shift), HyperComplex.from_rational(-1)),
                TopTerm(HyperNatural(1, -shift - 2), HyperComplex(1 / (I() - 3))),
                TopTerm(HyperNatural(1, -shift - 1), HyperComplex(IndexExpr.const(Q(1, 2)), I())))
    explicit = {(1,): HyperComplex.from_rational(-1),
                (0,): HyperComplex(1 / I(), IndexExpr.const(2)),
                (5,): HyperComplex.from_rational(Q(3, 7))}
    for p in (StructuredPoly(1, D_I, explicit, (band,), tops(0)),
              StructuredPoly(1, D_I, explicit, (), tops(0)),
              StructuredPoly(1, HyperNatural(1, -2), explicit, (band,), tops(2)[1:])):
        assert_view_matches(p, lambda i: reference_materialize(p, i))


def test_pole_raises_from_row_view_and_eval_on_every_call():
    pole = _pole_at_index_2()
    pt = ((Q(2, 5), Q(-1, 3)),)
    prod = ProductPoly(truncated_exp(D_I), pole)
    # no value at i = 3: scales by zero there
    scalar = early(IndexExpr.const(Q(2, 3)), 1 / (I() - 3), {1: (Q(7), Q(-1))})
    for p, reference in ((pole, lambda i: reference_materialize(pole, i)),
                         (prod, lambda i: reference_materialize(prod, i)),
                         (poly_add(prod, pole), lambda i: reference_lazy_sum(prod, pole, i)),
                         (scalar_mul(scalar, pole), lambda i: reference_lazy_scaled(scalar, pole, i))):
        for _ in range(3):
            for read in (p.row, p.materialize, lambda i: p.eval_exact(i, pt)):
                with pytest.raises(ZeroDivisionError):
                    read(2)
        assert_view_matches(p, reference)


def test_oracle_and_eval_exact_build_each_row_once():
    p = next(p for _, p in labeled_family(101, 40) if isinstance(p, StructuredPoly) and p.tails)
    built, rule = [], p._rule
    p._rule = lambda i: built.append(i) or rule(i)   # the indices whose row is built
    sampling_oracle(p, radius=1, horizon=12)
    sampling_oracle(p, radius=4, horizon=12)
    assert built == list(range(1, 13))
    pt, other = _oracle_points(p.n, Q(5, 4), 1, 5)[-2:]
    assert p.eval_exact(20, pt) == reference_eval_exact(p, 20, pt)
    assert p.eval_exact(20, other) == reference_eval_exact(p, 20, other)
    assert built == list(range(1, 13)) + [20]


def test_lazy_rows_build_no_fraction_view():
    """Lazy rules combine their operands' rows; no ``Fraction`` view is built
    on the way."""
    e = truncated_exp(D_I)
    b = StructuredPoly(2, D_I, tails=(TailTerm((1 / IndexExpr.factorial(),),
                                               psi_im=IndexExpr.const(Q(1, 3))),))
    with patch.object(interpoly, "fraction_table", wraps=fraction_table) as views:
        shapes = [poly_add(ProductPoly(e, e), e),
                  scalar_mul(HyperComplex(gen=lambda i: (Q(1, i), Q(1, 2))), e),
                  partial_derivative(b, (1, 0)),
                  truncate_series(lambda nu: Q(1, 1 + nu[0]), D_I)]
        assert all(isinstance(p, LazyPoly) for p in shapes)
        for i in range(1, 9):
            for p in shapes:
                p.row(i)
                p.eval_exact(i, ((Q(1, 2), Q(-1, 3)),) * p.n)
    assert views.call_count == 0


# ---------------------------------------------------------------------------
# products of tables: the kernel against the Fraction convolutions it replaced
# ---------------------------------------------------------------------------

def reference_product(a, b):
    """The convolution ``ProductPoly`` materialized with before the kernel."""
    out = {}
    for nu1, c1 in a.items():
        for nu2, c2 in b.items():
            k = tuple(x + y for x, y in zip(nu1, nu2))
            prev = out.get(k, (Q(0), Q(0)))
            t = _pair_mul(c1, c2)
            out[k] = (prev[0] + t[0], prev[1] + t[1])
    return out


def reference_dict_mul(a, b, order):
    """The truncated convolution ``SeriesMorphism.apply`` used before the kernel."""
    out = {}
    for k1, c1 in a.items():
        if sum(k1) > order:
            continue
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            if sum(k) > order:
                continue
            prev = out.get(k, (Q(0), Q(0)))
            out[k] = (
                prev[0] + c1[0] * c2[0] - c1[1] * c2[1],
                prev[1] + c1[0] * c2[1] + c1[1] * c2[0],
            )
    return out


def reference_apply(mor, h, order):
    """``SeriesMorphism.apply`` with ``reference_dict_mul`` as its product."""
    support_cap = max(order, h.display_order)
    zero = tuple([0] * mor.m_target)
    if any(g.coeff(zero) != (Q(0), Q(0)) for g in mor.images):
        support_cap = h.display_order
    table = {}
    img_tables = [g.coefficients_up_to(order) for g in mor.images]
    for m in range(support_cap + 1):
        for nu in multi_indices_of_degree(mor.n_source, m):
            c = h.coeff(nu)
            if c == (Q(0), Q(0)):
                continue
            term = {zero: c}
            for var, k in enumerate(nu):
                for _ in range(k):
                    term = reference_dict_mul(term, img_tables[var], order)
            for key, v in term.items():
                prev = table.get(key, (Q(0), Q(0)))
                table[key] = (prev[0] + v[0], prev[1] + v[1])
    return table


def assert_same_table(got, want):
    """Equal values under equal keys, listed in the same order."""
    assert list(got.items()) == list(want.items())


def assert_multiply_matches(a, b, n):
    """``multiply_rows`` on the rows of two tables in ``n`` variables gives the
    reference convolution less its zero sums, keys in the same order."""
    rows = [row_of_parts([part(nu, c) for nu, c in t.items()], n) for t in (a, b)]
    want = {k: v for k, v in reference_product(a, b).items() if v != (Q(0), Q(0))}
    assert_same_table(fraction_table(multiply_rows(*rows)), want)


def assert_product_matches(p, q, indices):
    prod = ProductPoly(p, q)
    for i in indices:
        try:
            a, b = p.materialize(i), q.materialize(i)
        except ZeroDivisionError:
            continue
        assert_multiply_matches(a, b, p.n)
        want = {k: v for k, v in reference_product(a, b).items() if v != (Q(0), Q(0))}
        assert_same_table(prod.materialize(i), want)


TABLES = {
    "empty": {},
    "constant": {(0,): (Q(3, 4), Q(0))},
    "complex": {(0,): (Q(1), Q(-2)), (2,): (Q(0), Q(5, 3)), (1,): (Q(-7, 2), Q(1, 9))},
    "mixed-denominators": {(3,): (Q(1, 6), Q(0)), (0,): (Q(-5, 14), Q(2, 15)),
                           (1,): (Q(11), Q(-1, 4))},
    "cancelling": {(0,): (Q(1), Q(0)), (1,): (Q(-1), Q(0))},
    "conjugate": {(0,): (Q(1), Q(0)), (1,): (Q(1), Q(0))},
    "integers": {(0,): (2, -1), (2,): (0, 3)},
}
BIVARIATE = {
    "xy": {(1, 0): (Q(1, 2), Q(1, 3)), (0, 1): (Q(-2), Q(0)), (1, 1): (Q(0), Q(4, 7))},
    "yx": {(0, 2): (Q(5, 6), Q(-1)), (0, 0): (Q(1), Q(0)), (2, 0): (Q(-3, 8), Q(1, 2))},
    "empty": {},
}


@pytest.mark.parametrize("a", sorted(TABLES))
@pytest.mark.parametrize("b", sorted(TABLES))
def test_multiply_matches_reference_on_univariate_tables(a, b):
    assert_multiply_matches(TABLES[a], TABLES[b], 1)


@pytest.mark.parametrize("a", sorted(BIVARIATE))
@pytest.mark.parametrize("b", sorted(BIVARIATE))
def test_multiply_matches_reference_on_bivariate_tables(a, b):
    assert_multiply_matches(BIVARIATE[a], BIVARIATE[b], 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_product_materialization_matches_reference_on_drawn_pairs(seed):
    rng = random.Random(seed)
    p, q = random_bounded_pair(rng)
    assert_product_matches(p, q, (1, 3, 8, 16))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_product_materialization_matches_reference_on_drawn_families(seed):
    members = [p for _, p in labeled_family(seed, 6)]
    for p, q in zip(members, members[1:] + members[:1]):
        if p.n == q.n:
            assert_product_matches(p, q, (1, 2, 5, 9))


_PART = st.fractions(-3, 3, max_denominator=4)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       point=st.lists(st.tuples(_PART, st.one_of(st.just(Q(0)), _PART)), min_size=2, max_size=2))
def test_product_evaluates_by_its_factors(seed, point):
    """``ProductPoly.eval_exact`` multiplies its factors' values; it must agree
    with evaluating the expansion, at real and at complex points."""
    p, q = random_bounded_pair(random.Random(seed))
    members = [m for _, m in labeled_family(seed, 6)]
    products = [ProductPoly(p, q), ProductPoly(ProductPoly(p, q), p)]
    products += [ProductPoly(a, b) for a, b in zip(members, members[1:]) if a.n == b.n]
    for prod in products:
        pt = tuple(point[:prod.n])
        for i in (1, 2, 5, 9):
            try:
                expansion = prod.materialize(i)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    prod.eval_exact(i, pt)
                continue
            row = row_of_parts([part(nu, c) for nu, c in expansion.items()], prod.n)
            ((re, im, den),) = evaluate((row,), pt)
            assert prod.eval_exact(i, pt) == (Q(re, den), Q(im, den))


def test_products_of_products_match_reference():
    rng = random.Random(7)
    for _ in range(40):
        p, q = random_bounded_pair(rng)
        r, _ = random_bounded_pair(rng)
        if r.n == p.n:
            assert_product_matches(ProductPoly(p, q), r, (2, 6))
            assert_product_matches(p, poly_mul(q, p), (3, 7))


def test_lazy_scalar_multiple_matches_reference():
    scalars = [
        early(IndexExpr.const(Q(2, 3)), IndexExpr.const(Q(-1, 5)), {1: (Q(7), Q(0))}),
        early(1 / I(), values={2: (Q(0), Q(0))}),
        HyperComplex(gen=lambda i: (Q(1, i), Q(1, 2))),
    ]
    for p in (_bivariate(), truncated_exp(D_I), ProductPoly(truncated_exp(D_I), _pole_at_index_2())):
        for c in scalars:
            scaled = scalar_mul(c, p)
            for i in (1, 2, 3, 6):
                try:
                    mat = p.materialize(i)
                except ZeroDivisionError:
                    continue
                cv = c.value_exact(i)
                want = {k: _pair_mul(cv, v) for k, v in mat.items()}
                assert_same_table(scaled.materialize(i),
                                  {k: v for k, v in want.items() if v != (Q(0), Q(0))})


def test_series_morphism_matches_reference():
    exp = StandardPowerSeries.exp()
    cases = [
        (st_morphism([scalar_mul(Q(1, 2), variable(1, 0))]), exp, 8),
        (st_morphism([ProductPoly(truncated_exp(D_I), variable(1, 0))]), exp, 6),
        (st_morphism([variable(2, 1), scalar_mul(Q(-3, 4), variable(2, 0))]),
         StandardPowerSeries.from_dict(2, {(1, 1): (Q(1), Q(2)), (2, 0): (Q(1, 3), Q(0))}), 5),
        (st_morphism([truncated_exp(D_I)]),
         StandardPowerSeries.from_dict(1, {(0,): (Q(1), Q(0)), (3,): (Q(0), Q(1, 2))}), 4),
    ]
    for mor, h, order in cases:
        got = mor.apply(h, order)
        want = reference_apply(mor, h, order)
        assert got.coefficients_up_to(order) == {
            k: v for k, v in want.items() if v != (Q(0), Q(0))}


# ---------------------------------------------------------------------------
# sums of products: dot against the chained sums it replaced
# ---------------------------------------------------------------------------

def reference_box_convolution(f, g, nu):
    """The coefficient rule of products before ``dot``: one ``HyperComplex``
    product and sum per ``mu``, each reading its operands' early values."""
    total = HyperComplex.from_rational(0)
    for mu in itertools.product(*(range(k + 1) for k in nu)):
        total = total + f(mu) * g(mi_sub(nu, mu))
    return total


def reference_series_product(s, t):
    """``StandardPowerSeries.__mul__`` before ``dot``: one Fraction pair per term."""
    def fn(nu):
        total = (Q(0), Q(0))
        for mu in itertools.product(*(range(k + 1) for k in nu)):
            a = s.coeff(mu)
            b = t.coeff(mi_sub(nu, mu))
            total = (
                total[0] + a[0] * b[0] - a[1] * b[1],
                total[1] + a[0] * b[1] + a[1] * b[0],
            )
        return total

    return StandardPowerSeries(s.n, fn)


def assert_same_hypercomplex(got, want, indices=range(1, 9)):
    """Term-for-term equal forms of symbolic values, and exactly equal values at
    ``indices`` (the early ones included), or no value at the same indices."""
    assert got.symbolic == want.symbolic
    if got.symbolic:
        assert (got.re.num, got.re.den) == (want.re.num, want.re.den)
        assert (got.im.num, got.im.den) == (want.im.num, want.im.den)
    for i in indices:
        try:
            w = want.value_exact(i)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                got.value_exact(i)
            continue
        assert got.value_exact(i) == w


def indices_to_degree(n, order):
    return [nu for m in range(order + 1) for nu in multi_indices_of_degree(n, m)]


def assert_convolutions_match(p, q, order):
    prod = ProductPoly(p, q)
    for nu in indices_to_degree(p.n, order):
        assert_same_hypercomplex(prod.coeff(nu), reference_box_convolution(p.coeff, q.coeff, nu))


def assert_series_products_match(p, q, order=12):
    sp, sq = st_poly(p), st_poly(q)
    got, want = sp * sq, reference_series_product(sp, sq)
    for nu in indices_to_degree(p.n, order):
        assert got.coeff(nu) == want.coeff(nu)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_product_coefficients_match_chained_sum_on_drawn_pairs(seed):
    p, q = random_bounded_pair(random.Random(seed))
    assert_convolutions_match(p, q, 6)
    assert_series_products_match(p, q)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_product_coefficients_match_chained_sum_on_drawn_families(seed):
    members = [p for _, p in labeled_family(seed, 6)]
    for p, q in zip(members, members[1:] + members[:1]):
        if p.n == q.n:
            assert_convolutions_match(p, q, 5)
            if classify_poly(p).bounded and classify_poly(q).bounded:
                assert_series_products_match(p, q)


def _singular_at_2():
    """Complex coefficients; ``1/(i - 2)`` has no value at 2, an index where the
    other factor has an early value."""
    p = StructuredPoly(1, HyperNatural.constant(2), {
        (0,): HyperComplex(1 / (I() - 2), IndexExpr.const(Q(1, 3))),
        (1,): early(IndexExpr.const(Q(-2, 5)), 1 / I(), {1: (Q(7), Q(-1, 2))}),
    })
    q = StructuredPoly(1, HyperNatural.constant(2), {
        (0,): early(I() / (I() + 1), IndexExpr.const(Q(5, 6)),
                    {2: (Q(1, 4), Q(0)), 3: (Q(0), Q(9, 7))}),
        (2,): early(IndexExpr.const(Q(3)), IndexExpr.const(Q(-1, 8)), {4: (Q(0), Q(0))}),
    })
    return p, q


def test_singular_factor_leaves_index_out_of_prefix():
    p, q = _singular_at_2()
    assert_convolutions_match(p, q, 4)
    assert_convolutions_match(q, p, 4)
    c = ProductPoly(p, q).coeff((1,))
    assert c.symbolic
    # the early values at 1 and 3 come from the factors, not from the forms
    for i in (1, 3):
        assert c.value_exact(i) == dot([(p.coeff((k,)).value_exact(i),
                                         q.coeff((1 - k,)).value_exact(i)) for k in (0, 1)])
        assert c.value_exact(i) != (c.re.eval(i), c.im.eval(i))
    with pytest.raises(ZeroDivisionError):
        c.value_exact(2)


def test_bivariate_box_with_prefixes():
    p = StructuredPoly(2, HyperNatural.constant(3), {
        (0, 0): early(IndexExpr.const(Q(1, 6)), 1 / I(), {1: (Q(2), Q(3, 4))}),
        (1, 0): HyperComplex(I() / (I() + 2), IndexExpr.const(Q(-5, 7))),
        (1, 1): early(IndexExpr.const(Q(-3, 4)), IndexExpr.const(Q(2, 9)), {3: (Q(0), Q(1))}),
        (0, 2): HyperComplex(1 / (I() - 3)),
    })
    assert_convolutions_match(p, _bivariate(), 4)
    assert_convolutions_match(_bivariate(), p, 4)
    assert_convolutions_match(p, p, 4)


def test_numeric_and_mixed_factors_keep_chained_sum():
    lazy = LazyPoly(1, HyperNatural.constant(3),
                    lambda i: [part((k,), (Q(k + 1, i), Q(-1, k + 2))) for k in range(4)])
    p, q = _singular_at_2()
    for a, b in ((lazy, lazy), (lazy, q), (p, lazy)):
        assert_convolutions_match(a, b, 4)
        assert not ProductPoly(a, b).coeff((2,)).symbolic


def test_internal_series_product_matches_chained_sum():
    p, q = _singular_at_2()
    s = theta(p) * theta(q)
    for nu in indices_to_degree(1, 4):
        assert_same_hypercomplex(s.coeff(nu), reference_box_convolution(p.coeff, q.coeff, nu))


def test_dot_single_pair():
    assert dot([((Q(2, 3), Q(-1, 5)), (Q(3, 7), Q(1, 2)))]) == (
        Q(2, 3) * Q(3, 7) + Q(1, 5) * Q(1, 2), Q(2, 3) * Q(1, 2) - Q(1, 5) * Q(3, 7))
    assert dot([((Q(1, 2), Q(0)), (Q(4), Q(0)))]) == (Q(2), Q(0))


def test_dot_zero_values():
    zero = (Q(0), Q(0))
    assert dot([]) == (Q(0), Q(0))
    assert dot([(zero, zero)]) == (Q(0), Q(0))
    assert dot([(zero, (Q(5, 3), Q(-2, 9))), ((Q(1, 4), Q(1, 6)), zero)]) == (Q(0), Q(0))
    assert dot([((Q(1, 3), Q(0)), (Q(3, 2), Q(0))), ((Q(-1, 2), Q(0)), (Q(1), Q(0)))]) == zero


def test_dot_mixed_denominators():
    pairs = [
        ((Q(1, 6), Q(-3, 4)), (Q(2, 5), Q(7, 9))),
        ((Q(5, 14), Q(0)), (Q(-1, 3), Q(1, 10))),
        ((Q(0), Q(11, 15)), (Q(4), Q(-5, 21))),
        ((Q(-9), Q(1, 8)), (Q(1, 35), Q(0))),
    ]
    want = (Q(0), Q(0))
    for a, b in pairs:
        t = _pair_mul(a, b)
        want = (want[0] + t[0], want[1] + t[1])
    assert dot(pairs) == want
    assert dot(pairs) == (Q(113, 252), Q(4237, 1512))
    assert dot([((2, -1), (Q(1, 3), 4))]) == (Q(14, 3), Q(23, 3))


# ---------------------------------------------------------------------------
# early values: a coefficient's value rule below its ``until``, computed on demand
# ---------------------------------------------------------------------------

ZERO = (Q(0), Q(0))


def homogenized_rows(p):
    """``p`` with one more variable Z, ``a_nu X^nu`` sent to ``a_nu X^nu Z^(d_i - |nu|)``
    row by row.  It has no coefficient rule, so each coefficient reads the row
    at every index; these are the values ``VALUES_DIGEST`` was captured with."""
    d = p.degree
    return LazyPoly(p.n + 1, d, lambda i: [(nu + (d.value(i) - sum(nu),), re, im, den)
                                           for nu, re, im, den in parts_of_row(p.row(i))])


def drawn_members():
    """Bounded pairs at four seeds with their sums and products, labeled family
    members, and the derivative and the homogenized rows of each."""
    out = []
    for seed in (1, 2, 101, 202):
        rng = random.Random(seed)
        base = [p for _, p in labeled_family(seed, 9)]
        for _ in range(5):
            p, q = random_bounded_pair(rng)
            base += [p, q, poly_add(p, q), poly_mul(p, q)]
        for p in base:
            out += [p, partial_derivative(p, (1,) + (0,) * (p.n - 1)), homogenized_rows(p)]
    return out


def coefficient_values(p, top=5, indices=range(1, 14)):
    """``(nu, i, value)`` for every ``|nu| <= top`` and index; None where the
    coefficient has no value."""
    for m in range(top + 1):
        for nu in multi_indices_of_degree(p.n, m):
            c = p.coeff(nu)
            for i in indices:
                try:
                    yield nu, i, c.value_exact(i)
                except ZeroDivisionError:
                    yield nu, i, None


def assert_values_match_rows(p):
    for nu, i, v in coefficient_values(p):
        try:
            table = p.materialize(i)
        except ZeroDivisionError:
            continue
        assert v == table.get(nu, ZERO), (nu, i)


# sha256 of the coefficient values of ``drawn_members``, captured after every
# band and top kept its own degree through sums, products and derivatives
VALUES_DIGEST = "b052dfc3f994491a738209762b531d38e2a2a92ea1e03a094356e2777d89780a"


def test_coefficient_values_match_the_rows_and_the_digest():
    digest = hashlib.sha256()
    for p in drawn_members():
        assert_values_match_rows(p)
        for nu, i, v in coefficient_values(p):
            key = (nu, i, "ZeroDivisionError") if v is None else (nu, i, str(v[0]), str(v[1]))
            digest.update(repr(key).encode())
    assert digest.hexdigest() == VALUES_DIGEST


def test_singular_factor_has_no_value_at_its_pole():
    p, q = _singular_at_2()
    for a, b in ((p, q), (q, p)):
        prod = ProductPoly(a, b)
        for nu in indices_to_degree(1, 4):
            with pytest.raises(ZeroDivisionError):
                prod.coeff(nu).value_exact(2)


def row_read_coefficients():
    """``(p, nu, indices)``: a coefficient of each kind that reads ``p``'s row at
    ``indices``, every index below its ``until``: a banded structured one with an
    early explicit term, two of a truncated series, and one of a ``LazyPoly``
    with no coefficient rule, which reads the row at every index."""
    banded = StructuredPoly(1, D_I, {(2,): early(IndexExpr.const(1), None,
                                                 {1: (Q(5), Q(-1)), 3: (Q(2, 7), Q(0))})},
                            tails=(TailTerm((1 / IndexExpr.factorial(),)),))
    series = truncate_series(lambda nu: Q(1, 1 + nu[0]), HyperNatural(1, -1))
    return [(banded, (2,), range(1, 4)), (series, (2,), range(1, 4)),
            (series, (3,), range(1, 5)), (homogenized_rows(banded), (2, 1), range(1, 6))]


def test_early_values_are_the_kept_row_entries():
    """An early value is the coefficient's entry in the row its polynomial
    keeps, and reading it builds no row again."""
    for p, nu, indices in row_read_coefficients():
        c = p.coeff(nu)
        assert not c.symbolic or c.until == indices.stop, nu
        for i in indices:
            p.row(i)
            with patch.object(interpoly, "row_of_parts", wraps=row_of_parts) as built:
                assert c.value_exact(i) == p.materialize(i).get(nu, ZERO), (nu, i)
            assert built.call_count == 0, (nu, i)


def test_derivative_of_a_moving_monomial_with_a_patched_degree():
    d = HyperNatural(1, 0, ((1, 0), (2, 1), (3, 1)))   # 0, 1, 1, 4, 5, ...
    c = HyperComplex(IndexExpr.const(Q(1, 2)), 1 / I())
    lowered = HyperNatural(1, -1, ((1, 0), (2, 0), (3, 0)))   # 0, 0, 0, 3, 4, ...
    for top in (d, lowered):
        p = StructuredPoly(1, d, tops=(TopTerm(top, c),))
        for order in (1, 2):
            dp = partial_derivative(p, (order,))
            # the factor e_i, the top's degree, reads the patches below its until
            assert dp.tops[0].coeff.until == 4
            assert_values_match_rows(dp)


def test_standard_parts_of_products_read_no_early_value(monkeypatch):
    """st of drawn st-pairs products comes from the coefficients' forms alone:
    no value rule is called below its ``until``."""
    made, calls = [], []
    init = HyperComplex.__init__

    def counting_init(self, re=None, im=None, until=1, gen=None):
        if gen is not None and (re is not None or im is not None) and until > 1:
            made.append(until)

            def gen(i, rule=gen):
                calls.append(i)
                return rule(i)
        init(self, re, im, until, gen)

    monkeypatch.setattr(HyperComplex, "__init__", counting_init)
    rng = random.Random(1)
    for _ in range(20):
        p, q = random_bounded_pair(rng)
        st_poly(poly_mul(p, q)).coefficients_up_to(12)
    assert made and calls == []
