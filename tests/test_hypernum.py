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
    NotEventuallyNonzeroError,
)
from hyperpoly.indexexpr import IndexExpr

I = IndexExpr.index


class TestHyperNatural:
    def test_affine_and_constant(self):
        d = HyperNatural.affine(2, 3)
        assert [d.value(i) for i in (1, 2, 3)] == [5, 7, 9]
        assert d.infinite
        assert not HyperNatural.constant(4).infinite
        assert HyperNatural.constant(4).finite_value == 4

    def test_min_with(self):
        d = HyperNatural.min_with(5)
        assert [d.value(i) for i in range(1, 8)] == [1, 2, 3, 4, 5, 5, 5]
        assert not d.infinite

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            HyperNatural(0, 0, ((1, 5), (2, 3)))

    def test_sum_and_max(self):
        a = HyperNatural.identity()
        b = HyperNatural.constant(3)
        assert (a + b).value(10) == 13
        m = a.max_with(b)
        assert [m.value(i) for i in (1, 2, 3, 4)] == [3, 3, 3, 4]


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


class TestInv:
    def test_inv_of_omega(self):
        x = HyperComplex.omega().inv()
        assert x.classify().label == INFINITESIMAL
        assert x.value_exact(10) == (Q(1, 10), Q(0))

    def test_inv_of_epsilon(self):
        x = HyperComplex.epsilon().inv()
        assert x.classify().label == INFINITE

    def test_inv_of_zero_rejected(self):
        with pytest.raises(NotEventuallyNonzeroError):
            HyperComplex.from_rational(0).inv()

    def test_inv_zero_padding_below_threshold(self):
        x = HyperComplex.from_expr(I() - 5)  # vanishes at i = 5
        y = x.inv()
        assert y.value_exact(5) == (Q(0), Q(0))
        assert y.value_exact(7) == (Q(1, 2), Q(0))

    def test_inv_rejects_parity_vanishing(self):
        osc = HyperComplex.from_expr(IndexExpr.const(1) + IndexExpr.geometric(-1))
        with pytest.raises(NotEventuallyNonzeroError):
            osc.inv()


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
        x = HyperComplex.from_generator(lambda i: (-1) ** i)
        assert x.classify().label == BOUNDED_UNCLASSIFIED

    def test_window_notes_print_the_thresholds(self):
        assert HyperComplex.from_generator(lambda i: 0.0).classify().to_json() == {
            "class": "infinitesimal",
            "verdict": {"kind": "Holds", "witness": 49,
                        "note": "window: |x| < 1e-09 on last quarter"}}
        assert HyperComplex.from_generator(lambda i: 0.5).classify().to_json() == {
            "class": "bounded-unclassified",
            "verdict": {"kind": "Holds", "witness": 1,
                        "note": "window: |x| <= 0.5 across horizon 64"}}

    def test_alternating_sign_symbolic_is_appreciable(self):
        x = HyperComplex.from_expr(IndexExpr.geometric(-1))
        assert x.classify().label == APPRECIABLE
        assert x.standard_part() is None  # no limit

    def test_declared_tag_checked(self):
        with pytest.raises(ValueError):
            HyperComplex(I(), tag="infinitesimal")
        HyperComplex(1 / I(), tag="infinitesimal")


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

    def test_numeric_tier_average(self):
        x = HyperComplex.from_generator(lambda i: 2 + 1 / i**2)
        v = x.standard_part()
        assert v is not None and abs(v - 2) < 1e-3
        osc = HyperComplex.from_generator(lambda i: (-1) ** i)
        assert osc.standard_part() is None


FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


class TestOneFormulaPerOperation:
    @settings(max_examples=200, deadline=None)
    @given(a=FLOATS, b=FLOATS, c=FLOATS, d=FLOATS)
    def test_numeric_tier_matches_complex_arithmetic_bit_for_bit(self, a, b, c, d):
        u, v = complex(a, b), complex(c, d)
        x = HyperComplex.from_generator(lambda i: u)
        y = HyperComplex.from_generator(lambda i: v)
        assert _bits((x * y).value(1)) == _bits(u * v)
        assert _bits((x + y).value(1)) == _bits(u + v)
        assert _bits((x - y).value(1)) == _bits(u - v)

    def test_mixed_tiers_use_the_exact_value_as_floats(self):
        x = HyperComplex(IndexExpr.const(Q(1, 3)), IndexExpr.const(Q(-2, 7)), {2: (Q(5), Q(1))})
        y = HyperComplex.from_generator(lambda i: complex(0.1 * i, -0.7))
        for i in (1, 2, 5):
            assert _bits((x * y).value(i)) == _bits(x.value(i) * y.value(i))
            assert _bits((y + x).value(i)) == _bits(y.value(i) + x.value(i))

    def test_prefix_pairs_follow_the_symbolic_formula(self):
        x = HyperComplex(IndexExpr.const(Q(1, 3)), IndexExpr.const(Q(-2, 7)), {2: (Q(5), Q(1))})
        y = HyperComplex(1 / I(), IndexExpr.const(Q(1, 2)), {3: (Q(-1, 4), Q(2))})
        prod, total = x * y, x + y
        for i in (1, 2, 3, 4):
            (a, b), (c, d) = x.value_exact(i), y.value_exact(i)
            assert prod.value_exact(i) == (a * c - b * d, a * d + b * c)
            assert total.value_exact(i) == (a + c, b + d)
        assert set(prod.prefix) == set(total.prefix) == {2, 3}
