"""Exactness and growth-analysis checks for the index-sequence fragment."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.indexexpr import FragmentError, IndexExpr

I = IndexExpr.index
C = IndexExpr.const


def seq(e, lo=1, hi=12):
    return [e.eval(i) for i in range(lo, hi + 1)]


def test_eval_basic():
    e = (2 * I() + 1) / (I() + 2)
    assert e.eval(1) == Q(3, 3)
    assert e.eval(10) == Q(21, 12)


def test_factorial_and_geometric():
    f = IndexExpr.factorial()
    g = IndexExpr.geometric(2)
    assert f.eval(5) == 120
    assert g.eval(6) == 64
    assert (f / g).eval(4) == Q(24, 16)


def test_zero_and_equality():
    a = (I() + 1) * (I() - 1)
    b = I() ** 2 - 1
    assert a.eq(b)
    assert (a - b).is_zero()


def test_limits():
    assert (C(3) + 1 / I()).limit() == 3
    assert ((2 * I() + 1) / (I() + 2)).limit() == 2
    assert (I() ** 2 / (I() ** 2 + 1)).limit() == 1
    assert (1 / IndexExpr.factorial()).limit() == 0
    assert I().limit() is None


def test_growth_kinds():
    assert (1 / I()).growth().kind == "zero"
    assert I().growth().kind == "infinite"
    assert IndexExpr.factorial().growth().kind == "infinite"
    assert ((2 * I() + 1) / (I() + 2)).growth().kind == "finite"
    assert IndexExpr.geometric(-1).growth().kind == "finite"
    assert IndexExpr.geometric(-1).limit() is None


def test_factorial_beats_geometric():
    # i! / 1000^i still diverges; 1000^i / i! still vanishes
    f = IndexExpr.factorial()
    g = IndexExpr.geometric(1000)
    assert (f / g).growth().kind == "infinite"
    assert (g / f).growth().kind == "zero"


def test_parity_oscillation_variants():
    # 1 + (-1)^i vanishes on odd indices: 0, 2, 0, 2, ...
    e = C(1) + IndexExpr.geometric(-1)
    assert e.eval(1) == 0 and e.eval(2) == 2
    assert e.growth().kind == "finite-or-zero"
    # (-1)^i / i oscillates in sign but tends to zero
    assert (IndexExpr.geometric(-1) / I()).growth().kind == "zero"


def test_mixed_parity_growth_is_flagged():
    # (1 + (-1)^i) * i is 0, 4, 0, 8, ... : neither bounded nor infinite
    e = (C(1) + IndexExpr.geometric(-1)) * I()
    assert e.growth().kind == "mixed"


def test_subst_affine_shift_with_factorial():
    # (i+2)! expands exactly
    f = IndexExpr.factorial().subst_affine(1, 2)
    for i in range(0, 8):
        assert f.eval(i) == IndexExpr.factorial().eval(i + 2)
    with pytest.raises(FragmentError):
        IndexExpr.factorial().subst_affine(2, 0)


def test_subst_affine_scale_on_geometric():
    g = IndexExpr.geometric(3).subst_affine(2, 1)
    for i in range(0, 6):
        assert g.eval(i) == Q(3) ** (2 * i + 1)


def test_division_by_eventual_zero_is_partial():
    e = 1 / (I() - 5)
    with pytest.raises(ZeroDivisionError):
        e.eval(5)
    assert e.eval(6) == 1


small = st.integers(min_value=-4, max_value=4)


@st.composite
def exprs(draw, depth=2):
    if depth == 0:
        leaf = draw(st.sampled_from(["const", "i", "geo"]))
        if leaf == "const":
            return C(draw(small))
        if leaf == "geo":
            base = draw(st.sampled_from([2, 3, -2, Q(1, 2)]))
            return IndexExpr.geometric(base)
        return I()
    op = draw(st.sampled_from(["+", "*", "-", "leaf"]))
    if op == "leaf":
        return draw(exprs(depth=0))
    a = draw(exprs(depth=depth - 1))
    b = draw(exprs(depth=depth - 1))
    return a + b if op == "+" else a * b if op == "*" else a - b


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), exprs())
def test_ring_laws_pointwise(a, b, c):
    lhs = (a + b) * c
    rhs = a * c + b * c
    for i in range(1, 9):
        assert lhs.eval(i) == rhs.eval(i)
    assert lhs.eq(rhs)
    assert (a * b).eq(b * a)
    assert ((a + b) + c).eq(a + (b + c))


@pytest.mark.parametrize("den,last_zero", [
    (I() - 3, 3),
    (IndexExpr.factorial() - 6, 3),
    (IndexExpr.geometric(2) - 8, 3),
    (I() * I() - 1000 * I(), 1000),
    (IndexExpr.geometric(2) - I() ** 3, None),
    (C(5), None),
])
def test_defined_from_is_past_the_last_zero(den, last_zero):
    front = (1 / den).defined_from()
    assert front is not None and (last_zero is None or front > last_zero)
    for i in range(front, front + 300):
        assert den.eval(i) != 0


def test_a_denominator_vanishing_on_a_parity_has_no_frontier():
    den = IndexExpr.geometric(2) + IndexExpr.geometric(-2)   # 0 at every odd index
    assert (1 / den).defined_from() is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(exprs(), st.integers(-3, 3))
def test_defined_from_property(den, fact):
    den = den + fact * IndexExpr.factorial()
    if den.is_zero():
        return
    front = (1 / den).defined_from()
    if front is None:
        assert any(den.eval(i) == 0 for i in range(1, 9))
        return
    for i in range(front, front + 64):
        assert den.eval(i) != 0
