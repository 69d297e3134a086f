"""Internal polynomial construction, arithmetic, and the theta map."""

import functools
import gc
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.classify import classify_poly
from hyperpoly.exacteval import fraction_table, multiply_rows, part, parts_of_row, row_of_parts
from hyperpoly.families import labeled_family, random_bounded_pair
from hyperpoly.hypernat import HyperNatural
from hyperpoly.hypernum import HyperComplex, INFINITE, INFINITESIMAL
from hyperpoly.indexexpr import IndexExpr
from hyperpoly.interpoly import (
    LazyPoly,
    ProductPoly,
    StructuredPoly,
    TailTerm,
    TopTerm,
    _hn_le_everywhere,
    add_terms,
    constant,
    moving_monomial,
    monomial,
    partial_derivative,
    poly_add,
    poly_compose,
    poly_eval,
    poly_mul,
    polys_equal_at,
    scalar_mul,
    theta,
    times_terms,
    truncate_series,
    truncated_exp,
    truncated_geometric,
    variable,
)
from hyperpoly.parser import bind_declarations, build_poly, parse

I = IndexExpr.index
D_I = HyperNatural.identity()


def pair(re, im=0):
    return (Q(re), Q(im))


class TestArithmetic:
    def test_x_times_x(self):
        X = variable(1, 0)
        sq = poly_mul(X, X)
        assert sq.materialize(3) == {(2,): pair(1)}
        assert sq.degree.value(5) == 2

    def test_sum_cancels_to_zero(self):
        p = truncated_geometric(D_I)
        q = scalar_mul(-1, truncated_geometric(D_I))
        s = poly_add(p, q)
        for i in (1, 3, 8):
            assert s.materialize(i) == {}

    def test_compose_square_shift(self):
        X = variable(1, 0)
        outer = poly_mul(X, X)
        inner = poly_add(X, constant(1, 1))
        c = poly_compose(outer, [inner])
        assert c.materialize(2) == {(0,): pair(1), (1,): pair(2), (2,): pair(1)}

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poly_add(variable(1, 0), variable(2, 0))
        with pytest.raises(ValueError):
            poly_compose(variable(2, 0), [variable(1, 0)])

    def test_ring_laws_at_random_indices(self):
        rng = random.Random(7)

        def rand_poly():
            expl = {}
            for _ in range(rng.randint(1, 4)):
                nu = (rng.randint(0, 3), rng.randint(0, 2))
                expl[nu] = HyperComplex.from_rational(
                    Q(rng.randint(-5, 5), rng.randint(1, 4))
                )
            return StructuredPoly(2, HyperNatural.constant(5), expl)

        for _ in range(10):
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            lhs = poly_mul(p, poly_add(q, r))
            rhs = poly_add(poly_mul(p, q), poly_mul(p, r))
            indices = [rng.randint(1, 100) for _ in range(32)]
            assert polys_equal_at(lhs, rhs, indices)
            assert polys_equal_at(poly_mul(p, q), poly_mul(q, p), indices)

    def test_product_degree_adds(self):
        p = truncated_exp(D_I)
        q = truncated_exp(HyperNatural.affine(2, 3))
        assert poly_mul(p, q).degree.value(10) == 10 + 23


def explicit2(coeffs):
    """A bivariate explicit polynomial of its largest total degree, keys in the order given."""
    return StructuredPoly(2, HyperNatural.constant(max(map(sum, coeffs))), coeffs)


class TestTableKernel:
    """Finite tables keep first-insertion order and left-associated sums."""

    def test_product_keys_in_nested_loop_order(self):
        p = explicit2({(1, 0): 2, (0, 1): 3})
        q = explicit2({(0, 1): 5, (1, 0): 7, (0, 0): 11})
        pq = poly_mul(p, q)
        order = [(1, 1), (2, 0), (1, 0), (0, 2), (0, 1)]   # p outer, q inner
        assert list(pq.explicit) == order
        assert list(pq.materialize(1)) == order
        c = pq.explicit[(1, 1)]     # 2 * 5 first, then 3 * 7
        assert c.re.eq((p.explicit[(1, 0)] * q.explicit[(0, 1)]
                        + p.explicit[(0, 1)] * q.explicit[(1, 0)]).re)
        assert pq.materialize(1)[(1, 1)] == pair(31)

    def test_sum_keys_in_first_insertion_order(self):
        p = explicit2({(1, 0): 2, (0, 1): 3})
        q = explicit2({(0, 2): 5, (0, 1): 7, (2, 0): 11})
        s = poly_add(p, q)
        order = [(1, 0), (0, 1), (0, 2), (2, 0)]
        assert list(s.explicit) == order
        assert list(s.materialize(1)) == order
        assert s.explicit[(0, 1)].re.eq((p.explicit[(0, 1)] + q.explicit[(0, 1)]).re)
        assert s.materialize(1)[(0, 1)] == pair(10)

    def test_sums_associate_to_the_left(self):
        terms = [((0,), 0.1), ((1,), 1.0), ((0,), 0.2), ((0,), 0.3)]
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert add_terms({}, terms) == {(0,): (0.1 + 0.2) + 0.3, (1,): 1.0}
        a, b = [((1,), 0.1), ((0,), 0.2)], [((0,), 0.3), ((1,), 0.7)]
        assert list(times_terms(a, b)) == [((1,), 0.1 * 0.3), ((2,), 0.1 * 0.7),
                                           ((0,), 0.2 * 0.3), ((1,), 0.2 * 0.7)]


class TestEval:
    def test_omega_x_at_one_is_infinite(self):
        P = scalar_mul(HyperComplex.omega(), variable(1, 0))
        v = poly_eval(P, [HyperComplex.from_rational(1)])
        assert v.classify().label == INFINITE
        assert v.value_exact(9) == pair(9)

    def test_eps_x_at_bounded_is_infinitesimal(self):
        P = scalar_mul(HyperComplex.epsilon(), variable(1, 0))
        v = poly_eval(P, [HyperComplex.from_rational(Q(7, 2))])
        assert v.classify().label == INFINITESIMAL

    def test_truncated_exp_at_one_tends_to_e(self):
        P = truncated_exp(D_I)
        v = poly_eval(P, [HyperComplex.from_rational(1)])
        # a generator of exact values; its float reading against e
        import math

        assert v.value_exact(4) == P.eval_exact(4, (pair(1),))
        assert abs(v.value(30) - math.e) < 1e-12

    def test_exact_evaluation_of_tail(self):
        P = truncated_exp(D_I)
        got = P.eval_exact(4, (pair(1),))
        assert got == (Q(1) + 1 + Q(1, 2) + Q(1, 6) + Q(1, 24), Q(0))


def test_structured_coefficients_are_symbolic():
    g = HyperComplex.from_generator(lambda i: (Q(1, i), Q(0)))
    with pytest.raises(TypeError):
        StructuredPoly(1, HyperNatural.constant(2), {(2,): g})
    with pytest.raises(TypeError):
        moving_monomial(D_I, g)


class TestDerivative:
    def test_derivative_of_square(self):
        X = variable(1, 0)
        dP = partial_derivative(poly_mul(X, X), (1,))
        assert dP.materialize(4) == {(1,): pair(2)}

    def test_derivative_of_truncated_exp_shifts(self):
        P = truncated_exp(D_I)
        dP = partial_derivative(P, (1,))
        # coefficient of X^k in dP at index i is 1/k! for k <= i-1
        m = dP.materialize(6)
        assert m[(0,)] == pair(1)
        assert m[(4,)] == pair(Q(1, 24))
        assert (6,) not in m
        assert dP.degree.value(6) == 5

    def test_derivative_of_a_product_reads_coefficients_off_its_rows(self):
        # a product has no structured form, so its derivative is a lazy rule
        # whose coefficient stream must agree with the rows it builds
        e = truncated_exp(D_I)
        dP = partial_derivative(ProductPoly(e, e), (1,))
        assert isinstance(dP, LazyPoly)
        for k in range(8):
            c = dP.coeff((k,))
            for i in range(1, 13):
                assert c.value_exact(i) == dP.materialize(i).get((k,), pair(0)), (k, i)
        # at index 2: (1 + X + X^2/2)^2 = 1 + 2X + 2X^2 + X^3 + X^4/4
        assert dP.materialize(2) == {(0,): pair(2), (1,): pair(4), (2,): pair(3),
                                     (3,): pair(1)}

    def test_derivative_beyond_degree_vanishes(self):
        P = monomial(1, (2,), 3)
        assert partial_derivative(P, (3,)).materialize(5) == {}

    def test_leibniz_rule_exact(self):
        rng = random.Random(3)
        for _ in range(6):
            p = StructuredPoly(
                1,
                HyperNatural.constant(4),
                {(rng.randint(0, 4),): HyperComplex.from_rational(rng.randint(-3, 3))},
            )
            q = truncated_exp(D_I)
            lhs = partial_derivative(poly_mul(p, q), (1,))
            rhs = poly_add(
                poly_mul(p, partial_derivative(q, (1,))),
                poly_mul(q, partial_derivative(p, (1,))),
            )
            assert polys_equal_at(lhs, rhs, [1, 2, 5, 11])


class TestDegreeRanges:
    """Comparisons of moving degrees hold at every index, index 1 included."""

    def test_a_constant_above_an_affine_bound_at_index_one_is_not_below_it(self):
        assert not _hn_le_everywhere(HyperNatural.constant(10), HyperNatural.affine(1, 3))
        assert _hn_le_everywhere(HyperNatural.constant(4), HyperNatural.affine(1, 3))

    def test_truncations_whose_order_flips_keep_every_coefficient(self):
        phi = (1 / IndexExpr.factorial(),)
        P = StructuredPoly(1, HyperNatural.constant(10),
                           tails=(TailTerm(phi, hi=HyperNatural.constant(10)),))
        R = StructuredPoly(1, HyperNatural.affine(1, 3),
                           tails=(TailTerm(phi, psi_re=IndexExpr.const(-1),
                                           hi=HyperNatural.affine(1, 3)),))
        S = poly_add(P, R)
        for i in range(1, 9):
            want = dict(P.materialize(i))
            for nu, (re, im) in R.materialize(i).items():
                want[nu] = (want.get(nu, pair(0))[0] + re, Q(0))
            assert {nu: c for nu, c in S.materialize(i).items() if c != pair(0)} == \
                {nu: c for nu, c in want.items() if c != pair(0)}, i

    @pytest.mark.parametrize("decls,left,right,bands", [
        ("d := 2*i; e := i; ", "sum(k=0..d, X^k)", "sum(k=0..e, X^k)", [("[i]", "[2*i]")]),
        ("e := i; ", "sum(k=0..e, X^k)", "sum(k=0..5, X^k)", [(None, "[i]"), (None, "5")]),
    ], ids=["nested-bounds-collapse", "flipping-bounds-stay-apart"])
    def test_difference_of_truncations(self, decls, left, right, bands):
        """Opposite bands over ranges whose bounds are ordered at every index
        become one band between the bounds; below index 5, ``5`` exceeds
        ``[i]``, so those bands stay apart."""
        def build(text):
            program = parse(decls + text)
            return build_poly(program.expression, bind_declarations(program))

        p, a, b = build(f"{left} - {right}"), build(left), build(right)
        assert [(None if t.lo is None else str(t.lo), str(t.hi)) for t in p.tails] == bands
        for i in range(1, 13):
            want = dict(a.materialize(i))
            for nu, (re, im) in b.materialize(i).items():
                old = want.get(nu, pair(0))
                want[nu] = (old[0] - re, old[1] - im)
            assert p.materialize(i) == {nu: c for nu, c in want.items() if c != pair(0)}, i
        assert classify_poly(p).verdict == "unbounded"


class TestTheta:
    def test_theta_of_moving_monomial_is_zero(self):
        P = moving_monomial(D_I)  # X^d, d = [i]
        s = theta(P)
        for k in range(6):
            c = s.coeff((k,))
            assert c.is_zero_expr()  # zero in the ultraproduct: hits finitely often
            for i in (1, 2, 3, 9):
                expected = pair(1) if i == k else pair(0)
                assert c.value_exact(i) == expected

    def test_theta_of_constant_plus_top(self):
        P = poly_add(constant(1, 5), moving_monomial(D_I))
        s = theta(P)
        assert s.coeff((0,)).re.eval(10) == 5
        assert s.coeff((3,)).is_zero_expr()

    def test_theta_is_ring_hom_on_products(self):
        rng = random.Random(11)
        for _ in range(5):
            p = StructuredPoly(
                1,
                HyperNatural.constant(4),
                {(k,): HyperComplex.from_rational(rng.randint(-4, 4)) for k in range(4)},
            )
            q = truncated_exp(D_I)
            prod = poly_mul(p, q)
            lhs = theta(prod)
            rhs = theta(p) * theta(q)
            for k in range(9):
                a = lhs.coeff((k,))
                b = rhs.coeff((k,))
                for i in (5, 9, 14):
                    va = a.value_exact(i) if a.symbolic else a.value(i)
                    vb = b.value_exact(i) if b.symbolic else b.value(i)
                    assert va == vb

    def test_theta_identity_on_finite_degree(self):
        p = StructuredPoly(
            1, HyperNatural.constant(3), {(2,): HyperComplex.from_rational(7)}
        )
        assert theta(p).coeff((2,)).re.eval(4) == 7


class TestTruncateSeries:
    def test_exp_truncation_coefficients(self):
        P = truncated_exp(D_I)
        c = P.coeff((3,))
        assert c.value_exact(10) == pair(Q(1, 6))
        assert c.value_exact(2) == pair(0)  # degree 2 < 3 at index 2

    def test_zero_series(self):
        P = truncate_series(lambda nu: 0, D_I)
        assert P.materialize(7) == {}

    def test_general_rule_materializes(self):
        P = truncate_series(lambda nu: Q(1, 1 + nu[0] ** 2), HyperNatural.affine(2, 3))
        m = P.materialize(2)
        assert m[(7,)] == pair(Q(1, 50))
        assert P.coeff((7,)).value_exact(1) == pair(0)
        assert P.coeff((7,)).value_exact(3) == pair(Q(1, 50))


class TestSampledConsistency:
    def test_coeff_matches_materialization(self):
        rng = random.Random(23)
        P = poly_add(
            truncated_exp(D_I),
            StructuredPoly(
                1,
                HyperNatural.constant(2),
                {(1,): HyperComplex.from_expr(1 / I())},
            ),
        )
        for _ in range(16):
            nu = (rng.randint(0, 6),)
            i = rng.randint(1, 40)
            assert P.coeff(nu).value_exact(i) == P.materialize(i).get(nu, pair(0))


@pytest.mark.parametrize("make", [
    lambda: scalar_mul(HyperComplex.from_expr(I()), variable(2, 1)),
    lambda: ProductPoly(truncated_exp(HyperNatural.constant(2)), variable(1, 0)),
    lambda: LazyPoly(1, D_I, lambda i: [part((0,), pair(i)), part((1,), pair(0))]),
], ids=["structured", "product", "lazy"])
def test_every_materialization_and_coefficient_is_kept(make):
    p = make()
    first = {i: p.materialize(i) for i in range(1, 601)}
    assert all(p.materialize(i) is first[i] for i in first)
    assert all(pair(0) not in m.values() for m in first.values())
    nus = [(m,) * p.n for m in range(3)]
    coeffs = [p.coeff(nu) for nu in nus]
    assert all(p.coeff(list(nu)) is c for nu, c in zip(nus, coeffs))


# ---------------------------------------------------------------------------
# structured operations against row arithmetic on their operands
# ---------------------------------------------------------------------------

LATE = range(25, 29)   # past every patch and early-index clip of the drawn members


def table(parts, n):
    return fraction_table(row_of_parts(parts, n))


def summed(p, q, i):
    return table(parts_of_row(p.row(i)) + parts_of_row(q.row(i)), p.n)


def scaled(c, p, i):
    _, a, b, d = part((), c.value_exact(i))
    return table([(nu, re * a - im * b, re * b + im * a, den * d)
                  for nu, re, im, den in parts_of_row(p.row(i))], p.n)


def lowered(p, i):
    """d/dX_1 P_i, term by term."""
    return table([((nu[0] - 1,) + nu[1:], re * nu[0], im * nu[0], den)
                  for nu, re, im, den in parts_of_row(p.row(i)) if nu[0]], p.n)


@functools.lru_cache(maxsize=None)
def family(seed):
    return tuple(p for _, p in labeled_family(seed, 9))


SEEDS = (1, 2, 30, 101, 202)


@st.composite
def operand_pairs(draw):
    """Two members of one arity: a bounded pair, two labeled-family members, or
    a family member with a top times an explicit univariate member (the
    band-times-short-explicit product)."""
    kind = draw(st.sampled_from(("pair", "family", "top-times-explicit")))
    if kind == "pair":
        rng = random.Random(draw(st.sampled_from(SEEDS)))
        return [random_bounded_pair(rng) for _ in range(draw(st.integers(1, 5)))][-1]
    members = [p for seed in SEEDS for p in family(seed)]
    if kind == "family":
        p = draw(st.sampled_from(members))
        return p, draw(st.sampled_from([q for q in members if q.n == p.n]))
    return (draw(st.sampled_from([p for p in members if p.tops])),
            draw(st.sampled_from([q for q in members if q.n == 1 and not q.tails
                                  and not q.tops and len(q.explicit) <= 4])))


SCALARS = (HyperComplex.from_rational(Q(-2, 3), Q(1, 2)),
           HyperComplex(1 / I(), IndexExpr.const(2)),
           HyperComplex.from_expr((2 * I() + 1) / (I() + 2)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pq=operand_pairs(), c=st.sampled_from(SCALARS))
def test_structured_operations_agree_with_row_arithmetic(pq, c):
    """Each structured sum, product, scalar multiple and derivative holds, at
    late indices, the row arithmetic of its operands."""
    p, q = pq
    results = [(poly_add(p, q), lambda i: summed(p, q, i)),
               (poly_mul(p, q), lambda i: fraction_table(multiply_rows(p.row(i), q.row(i)))),
               (scalar_mul(c, p), lambda i: scaled(c, p, i)),
               (partial_derivative(p, (1,) + (0,) * (p.n - 1)), lambda i: lowered(p, i))]
    for r, want in results:
        if not isinstance(r, StructuredPoly):
            continue
        for i in LATE:
            assert r.materialize(i) == want(i), i


D_2I = HyperNatural.affine(2, 0)
ONE_BELOW = TopTerm(HyperNatural(1, -1), HyperComplex.from_rational(1))   # X^(i-1)

# the sums, products and derivatives that once moved a band or a top off its
# own degree, each with the row arithmetic it must equal
ANCHOR_CASES = {
    "difference-of-exp-truncations": (
        lambda: truncated_exp(D_2I) - truncated_exp(D_I),
        lambda i: summed(truncated_exp(D_2I), scalar_mul(-1, truncated_exp(D_I)), i)),
    "exp-plus-a-top-of-twice-the-degree": (
        lambda: poly_add(truncated_exp(D_I), moving_monomial(D_2I)),
        lambda i: summed(truncated_exp(D_I), moving_monomial(D_2I), i)),
    "top-one-below-the-degree-times-x": (
        lambda: StructuredPoly(1, D_I, tops=(ONE_BELOW,)) * variable(1, 0),
        lambda i: {(i,): pair(1)}),
    "derivative-of-x-to-the-d": (
        lambda: partial_derivative(moving_monomial(D_I), (1,)),
        lambda i: {(i - 1,): pair(i)}),
}


@pytest.mark.parametrize("name", list(ANCHOR_CASES))
def test_terms_keep_their_own_degree(name):
    make, want = ANCHOR_CASES[name]
    p = make()
    assert isinstance(p, StructuredPoly)
    for i in range(2, 9):
        assert p.materialize(i) == want(i), i


def test_exp_truncations_at_index_2_and_3():
    assert poly_add(truncated_exp(D_I), moving_monomial(D_2I)).materialize(2) == {
        (0,): pair(1), (1,): pair(1), (2,): pair(Q(1, 2)), (4,): pair(1)}
    assert (truncated_exp(D_2I) - truncated_exp(D_I)).materialize(3) == {
        (4,): pair(Q(1, 24)), (5,): pair(Q(1, 120)), (6,): pair(Q(1, 720))}


def test_lazy_scalar_multiple_reads_zero_where_the_scalar_has_no_value():
    p = scalar_mul(HyperComplex(1 / (I() - 3)), ProductPoly(truncated_exp(D_I), variable(1, 0)))
    assert isinstance(p, LazyPoly)
    for i in range(1, 12):
        for k in range(6):
            assert p.coeff((k,)).value_exact(i) == p.materialize(i).get((k,), pair(0)), (k, i)
    assert p.materialize(3) == {}


def test_a_lazy_coefficient_read_off_the_rows_makes_no_reference_cycle():
    # no coefficient rule: the row at every index
    reads = [(lambda: LazyPoly(1, D_I, lambda i: [part((k,), pair(Q(1, k + i)))
                                                   for k in range(i + 1)]),
              (2,), 5, pair(Q(1, 7))),
             # until 4: the degree i reaches 3 at i = 3
             (lambda: truncated_exp(D_I), (3,), 2, pair(0)),
             # until 3: the degree i reaches 2 at i = 2
             (lambda: truncate_series(lambda nu: Q(1, 1 + nu[0]), D_I), (2,), 2, pair(Q(1, 3)))]
    gc.collect()
    gc.disable()
    try:
        for make, nu, i, want in reads:
            for _ in range(100):
                p = make()
                c = p.coeff(nu)
                assert not c.symbolic or i < c.until
                assert c.value_exact(i) == want
            del p, c
            assert gc.collect() == 0, nu
    finally:
        gc.enable()
