"""Internal polynomial construction, arithmetic, and the theta map."""

import random
from fractions import Fraction as Q

import pytest

from hyperpoly.hypernat import HyperNatural
from hyperpoly.hypernum import HyperComplex, INFINITE, INFINITESIMAL
from hyperpoly.indexexpr import IndexExpr
from hyperpoly.interpoly import (
    LazyPoly,
    ProductPoly,
    StructuredPoly,
    TailTerm,
    abs_poly,
    constant,
    dehomogenize,
    homogenize,
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
    truncate_series,
    truncated_exp,
    truncated_geometric,
    variable,
    zero_poly,
)

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
        # numeric generator tier: compare against e
        import math

        assert abs(v.value(30) - math.e) < 1e-12

    def test_exact_evaluation_of_tail(self):
        P = truncated_exp(D_I)
        got = P.eval_exact(4, (pair(1),))
        assert got == (Q(1) + 1 + Q(1, 2) + Q(1, 6) + Q(1, 24), Q(0))


class TestAbsAndDerivative:
    def test_abs_flips_signs(self):
        X = variable(1, 0)
        P = poly_add(X, scalar_mul(-1, poly_mul(X, X)))  # X - X^2
        A = abs_poly(P)
        assert A.materialize(2) == {(1,): pair(1), (2,): pair(1)}

    def test_abs_of_alternating_band(self):
        # coefficients (-1)^m / m!
        t = TailTerm.from_degree_rule(IndexExpr.geometric(-1) / IndexExpr.factorial())
        P = StructuredPoly(1, D_I, tails=(t,))
        A = abs_poly(P)
        m5 = A.materialize(5)
        assert m5[(3,)] == pair(Q(1, 6))
        assert all(c[0] > 0 for c in m5.values())

    def test_abs_idempotent(self):
        t = TailTerm.from_degree_rule(IndexExpr.geometric(-1) / IndexExpr.factorial())
        P = StructuredPoly(1, D_I, tails=(t,))
        A = abs_poly(P)
        for i in (2, 5, 9):
            assert abs_poly(A).materialize(i) == A.materialize(i)

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


class TestHomogenize:
    def test_constant_degree_example(self):
        # 1 + X at degree 3 -> Z^3 + X Z^2
        P = StructuredPoly(
            1,
            HyperNatural.constant(3),
            {(0,): HyperComplex.from_rational(1), (1,): HyperComplex.from_rational(1)},
        )
        H = homogenize(P)
        assert H.materialize(5) == {(0, 3): pair(1), (1, 2): pair(1)}

    def test_roundtrip_dehomogenize(self):
        rng = random.Random(5)
        for _ in range(5):
            expl = {
                (rng.randint(0, 3), rng.randint(0, 2)): HyperComplex.from_rational(
                    rng.randint(-5, 5)
                )
                for _ in range(3)
            }
            P = StructuredPoly(2, HyperNatural.constant(6), expl)
            back = dehomogenize(homogenize(P))
            assert polys_equal_at(P, back, [1, 4, 9])

    def test_truncated_exp_homogenized_at_index_4(self):
        P = truncated_exp(D_I)
        H = homogenize(P)
        m = H.materialize(4)
        assert m == {
            (0, 4): pair(1),
            (1, 3): pair(1),
            (2, 2): pair(Q(1, 2)),
            (3, 1): pair(Q(1, 6)),
            (4, 0): pair(Q(1, 24)),
        }
        # homogeneous of degree d_i at every index
        assert all(sum(nu) == 4 for nu in m)

    def test_homogenize_coeff_stream(self):
        P = truncated_exp(D_I)
        H = homogenize(P)
        c = H.coeff((2, 1))  # hits exactly at i = 3
        assert c.value_exact(3) == pair(Q(1, 2))
        assert c.value_exact(4) == pair(0)


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
            assert P.coeff(nu).value_exact(i) == P.coeff_value_at(nu, i)


@pytest.mark.parametrize("make", [
    lambda: scalar_mul(HyperComplex.from_expr(I()), variable(2, 1)),
    lambda: ProductPoly(truncated_exp(HyperNatural.constant(2)), variable(1, 0)),
    lambda: LazyPoly(1, D_I, lambda i: {(0,): pair(i), (1,): pair(0)}),
], ids=["structured", "product", "lazy"])
def test_every_materialization_and_coefficient_is_kept(make):
    p = make()
    first = {i: p.materialize(i) for i in range(1, 601)}
    assert all(p.materialize(i) is first[i] for i in first)
    assert all(pair(0) not in m.values() for m in first.values())
    nus = [(m,) * p.n for m in range(3)]
    coeffs = [p.coeff(nu) for nu in nus]
    assert all(p.coeff(list(nu)) is c for nu, c in zip(nus, coeffs))
