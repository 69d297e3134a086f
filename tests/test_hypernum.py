from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.hypernat import HyperNatural
from hyperpoly.hypernum import (
    APPRECIABLE,
    BOUNDED_UNCLASSIFIED,
    INFINITE,
    INFINITESIMAL,
    HyperComplex,
    NoStandardPartError,
    exact_complex,
)
from hyperpoly.indexexpr import IndexExpr

I = IndexExpr.index


def early(re, im, values):
    """``re + i im`` that reads ``values`` ({index: pair}) at those indices."""
    return HyperComplex(re, im, max(values) + 1,
                        lambda i: values[i] if i in values else (re.eval(i), im.eval(i)))


class TestHyperNatural:
    def test_affine_and_constant(self):
        d = HyperNatural.affine(2, 3)
        assert [d.value(i) for i in (1, 2, 3)] == [5, 7, 9]
        assert d.infinite
        assert not HyperNatural.constant(4).infinite
        assert HyperNatural.constant(4).finite_value == 4

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            HyperNatural(0, 0, ((1, 5), (2, 3)))

    def test_sum_and_max(self):
        a = HyperNatural.identity()
        b = HyperNatural.constant(3)
        assert (a + b).value(10) == 13
        m = a.max_with(b)
        assert [m.value(i) for i in (1, 2, 3, 4)] == [3, 3, 3, 4]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(slope=st.integers(0, 3), intercept=st.integers(-6, 6), m=st.integers(-2, 40),
           data=st.data())
    def test_stable_from_holds_the_eventual_comparison(self, slope, intercept, m, data):
        # patches at 1..k, nondecreasing and below the affine value at k + 1
        k = data.draw(st.integers(0, 6))
        cap = max(0, slope * (k + 1) + intercept)
        values = sorted(data.draw(st.lists(st.integers(0, cap), min_size=k, max_size=k)))
        d = HyperNatural(slope, intercept, tuple(enumerate(values, 1)))

        def sign(i):
            return (d.value(i) > m) - (d.value(i) < m)
        eventual = 1 if slope > 0 else (max(0, intercept) > m) - (max(0, intercept) < m)
        t = d.stable_from(m)
        assert 1 <= t <= 60
        assert all(sign(i) == eventual for i in range(t, 61))
        if not d.patches and t > 1:
            assert sign(t - 1) != eventual   # the first such index without patches


class TestArithmetic:
    def test_add_mul(self):
        three = HyperComplex.from_rational(3)
        eps = HyperComplex.epsilon()
        s = three + eps
        assert s.value_exact(4) == (Q(13, 4), Q(0))
        prod = HyperComplex.omega() * eps
        assert prod.value_exact(7) == (Q(1), Q(0))
        assert prod.re.eq(IndexExpr.const(1))

    def test_omega_plus_omega_is_infinite(self):
        two_omega = HyperComplex.omega() + HyperComplex.omega()
        assert two_omega.value_exact(5) == (Q(10), Q(0))
        assert two_omega.classify().label == INFINITE

    def test_complex_multiplication(self):
        z = HyperComplex(IndexExpr.const(0), IndexExpr.const(1))  # the constant i
        assert (z * z).value_exact(1) == (Q(-1), Q(0))


class TestClassify:
    def test_inverse_factorial(self):
        x = HyperComplex.from_expr(1 / IndexExpr.factorial())
        assert x.classify().label == INFINITESIMAL

    def test_rational_limit_appreciable(self):
        x = HyperComplex.from_expr(I() ** 2 / (I() ** 2 + 1))
        c = x.classify()
        assert c.label == APPRECIABLE
        assert x.standard_part() == (Q(1), Q(0))

    def test_alternating_sign_numeric(self):
        x = HyperComplex.from_generator(lambda i: (Q((-1) ** i), Q(0)))
        assert x.classify().label == BOUNDED_UNCLASSIFIED

    def test_window_notes_print_the_thresholds(self):
        assert HyperComplex.from_generator(lambda i: (Q(0), Q(0))).classify().to_json() == {
            "class": "infinitesimal",
            "verdict": {"kind": "Holds", "witness": 49,
                        "note": "window: |x| < 1e-09 on last quarter"}}
        assert HyperComplex.from_generator(lambda i: (Q(1, 2), Q(0))).classify().to_json() == {
            "class": "bounded-unclassified",
            "verdict": {"kind": "Holds", "witness": 1,
                        "note": "window: |x| <= 0.5 across horizon 64"}}

    def test_alternating_sign_symbolic_is_appreciable(self):
        x = HyperComplex.from_expr(IndexExpr.geometric(-1))
        assert x.classify().label == APPRECIABLE
        assert x.standard_part() is None  # no limit


class TestStandardPart:
    def test_exact_limits(self):
        assert (HyperComplex.from_rational(3) + HyperComplex.epsilon()).standard_part() == (3, 0)
        x = HyperComplex.from_expr((2 * I() + 1) / (I() + 2))
        assert x.standard_part() == (2, 0)

    def test_infinite_has_none(self):
        with pytest.raises(NoStandardPartError):
            HyperComplex.omega().standard_part()

    def test_st_is_ring_hom_on_convergent(self):
        x = HyperComplex.from_expr(C3 := IndexExpr.const(3) + 1 / I())
        y = HyperComplex.from_expr((2 * I() + 1) / (I() + 2))
        sx, sy = x.standard_part(), y.standard_part()
        assert (x + y).standard_part() == (sx[0] + sy[0], 0)
        assert (x * y).standard_part() == (sx[0] * sy[0], 0)

    def test_bounded_generator_value_is_undetermined(self):
        x = HyperComplex.from_generator(lambda i: (2 + Q(1, i * i), Q(0)))
        assert x.standard_part() is None

    def test_growing_generator_value_has_none(self):
        with pytest.raises(NoStandardPartError):
            HyperComplex.from_generator(lambda i: (Q(3) ** i, Q(0))).standard_part()


PAIRS = st.tuples(st.fractions(max_denominator=40), st.fractions(max_denominator=40))
WINDOWS = st.lists(PAIRS, min_size=4, max_size=4)


class TestOneFormulaPerOperation:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(u=WINDOWS, v=WINDOWS, k=PAIRS, w=PAIRS)
    def test_generator_values_follow_the_exact_formula(self, u, v, k, w):
        x = HyperComplex.from_generator(lambda i: u[i - 1])
        y = HyperComplex.from_generator(lambda i: v[i - 1])
        s = early(IndexExpr.const(k[0]) + 1 / I(), IndexExpr.const(k[1]), {2: w})
        for f, g in ((x, y), (x, s), (s, x)):
            for i in range(1, 5):
                (a, b), (c, d) = f.value_exact(i), g.value_exact(i)
                for z, want in ((f * g, (a * c - b * d, a * d + b * c)),
                                (f + g, (a + c, b + d)),
                                (f - g, (a - c, b - d)),
                                (-x, (-u[i - 1][0], -u[i - 1][1]))):
                    assert not z.symbolic
                    assert z.value_exact(i) == want
                    assert z.value(i) == exact_complex(*want)

    def test_prefix_overrides_a_generator_value(self):
        # a generator-backed value reads its rule at every index, whatever `until` says
        x = HyperComplex(until=2, gen=lambda i: (Q(5), Q(1)) if i == 2 else (Q(i), Q(0)))
        assert not x.symbolic
        assert [x.value_exact(i) for i in (1, 2, 3)] == [(1, 0), (5, 1), (3, 0)]
        assert (x * x).value_exact(2) == (24, 10)

    def test_prefix_pairs_follow_the_symbolic_formula(self):
        x = early(IndexExpr.const(Q(1, 3)), IndexExpr.const(Q(-2, 7)), {2: (Q(5), Q(1))})
        y = early(1 / I(), IndexExpr.const(Q(1, 2)), {3: (Q(-1, 4), Q(2))})
        prod, total = x * y, x + y
        for i in (1, 2, 3, 4):
            (a, b), (c, d) = x.value_exact(i), y.value_exact(i)
            assert prod.value_exact(i) == (a * c - b * d, a * d + b * c)
            assert total.value_exact(i) == (a + c, b + d)
        # the operands' early values reach the results at 2 and 3, and only there
        for z in (prod, total):
            assert [z.value_exact(i) == (z.re.eval(i), z.im.eval(i)) for i in (1, 2, 3, 4)] == [
                True, False, False, True]
