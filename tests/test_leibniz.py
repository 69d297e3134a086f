"""The infinitesimal differential calculus: delta, I, phi, factorization."""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.hypernat import HyperNatural
from hyperpoly.hypernum import HyperComplex
from hyperpoly.indexexpr import IndexExpr
from hyperpoly.interpoly import (
    StructuredPoly,
    TailTerm,
    constant,
    multi_indices_of_degree,
    partial_derivative,
    poly_add,
    poly_mul,
    scalar_mul,
    truncated_exp,
    variable,
    zero_poly,
)
from hyperpoly.leibniz import (
    DiffElement,
    DnCertificateError,
    EpsFactor,
    Factorization,
    FactorizationError,
    ScaledPoly,
    classify_scaled,
    delta,
    derivation_check,
    factor_chain,
    in_I,
    in_I2,
    infinitesimal_factor,
    phi,
    taylor_identity_check,
)
from hyperpoly.classify import INFINITESIMAL
from hyperpoly.stdpart import StandardPartError

I = IndexExpr.index
D_I = HyperNatural.identity()


def rpoly(n, coeffs):
    deg = max((sum(k) for k in coeffs), default=0)
    return StructuredPoly(
        n, HyperNatural.constant(deg),
        {k: HyperComplex.from_rational(v) for k, v in coeffs.items()},
    )


class TestDelta:
    def test_delta_of_square(self):
        X2 = rpoly(1, {(2,): 1})
        d = delta(X2)
        assert d.x_part().materialize(3) == {}
        assert d.linear_slice(0).materialize(3) == {(1,): (Q(2), Q(0))}
        assert d.slices[(2,)].materialize(3) == {(0,): (Q(1), Q(0))}

    def test_delta_of_constant_is_zero(self):
        d = delta(constant(1, 5))
        assert d.slices == {}

    def test_delta_of_xy(self):
        XY = rpoly(2, {(1, 1): 1})
        d = delta(XY)
        assert d.linear_slice(0).materialize(2) == {(0, 1): (Q(1), Q(0))}
        assert d.linear_slice(1).materialize(2) == {(1, 0): (Q(1), Q(0))}
        assert d.slices[(1, 1)].materialize(2) == {(0, 0): (Q(1), Q(0))}


def spelled(p) -> str:
    """A structured slice written out field by field: same text, same polynomial."""
    def hc(c):
        return repr(c.re), repr(c.im), [c.value_exact(i) for i in range(1, c.until)]

    return repr((type(p).__name__, p.n, p.degree,
                 [(nu, hc(c)) for nu, c in p.explicit.items()],
                 p.tails, [(t.degree, hc(t.coeff)) for t in p.tops]))


def reference_slice(f, mu):
    """The Taylor slice d^mu f / mu!, derived from f itself."""
    return scalar_mul(Q(1, math.prod(map(math.factorial, mu))), partial_derivative(f, mu))


def reference_delta(f) -> dict:
    """delta's slices as a derivation of each mu from f, vanishing ones left out."""
    out = {}
    for m in range(1, f.degree.intercept + 1):
        for mu in multi_indices_of_degree(f.n, m):
            d = partial_derivative(f, mu)
            if d.explicit or d.tails or d.tops:
                out[mu] = spelled(reference_slice(f, mu))
    return out


@st.composite
def explicit_polys(draw):
    """Univariate and bivariate explicit polynomials; a declared degree above the
    true one, and mixed monomials in two variables, give vanishing slices."""
    n = draw(st.integers(1, 2))
    rational = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    coeffs = draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * n),
                                  st.tuples(rational, rational), max_size=5))
    deg = max((sum(nu) for nu in coeffs), default=0) + draw(st.integers(0, 2))
    return StructuredPoly(n, HyperNatural.constant(deg), {
        nu: HyperComplex.from_rational(re, im) for nu, (re, im) in coeffs.items()})


class TestIncrementalSlices:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(f=explicit_polys())
    def test_delta_slices_match_per_mu_derivatives(self, f):
        got = {mu: spelled(s) for mu, s in delta(f).slices.items()}
        assert got == reference_delta(f)
        assert list(got) == list(reference_delta(f))


class TestMembership:
    def test_delta_lands_in_I(self):
        assert in_I(delta(rpoly(1, {(2,): 1}))).holds()

    def test_one_plus_dx_fails(self):
        p = DiffElement(1, {(0,): constant(1, 1), (1,): constant(1, 1)})
        assert in_I(p).fails()

    def test_eps_plus_dx_holds(self):
        p = DiffElement(
            1,
            {(0,): scalar_mul(HyperComplex.epsilon(), constant(1, 1)),
             (1,): constant(1, 1)},
        )
        assert in_I(p).holds()

    def test_unbounded_slice_has_no_certificate(self):
        p = DiffElement(1, {(1,): scalar_mul(HyperComplex.omega(), constant(1, 1))})
        with pytest.raises(DnCertificateError):
            in_I(p)


class TestPhi:
    def test_phi_refuses_an_element_outside_I(self):
        p = DiffElement(1, {(0,): constant(1, 1), (1,): constant(1, 1)})
        verdict = in_I(p)
        assert verdict.fails()
        with pytest.raises(StandardPartError) as info:
            phi(p)
        assert str(info.value) == f"phi needs an element of I ({verdict})"
        assert str(verdict) in str(info.value)

    def test_phi_of_delta_square(self):
        form = phi(delta(rpoly(1, {(2,): 1})))
        # 2x dx
        assert form.components[0].coeff((1,)) == (2, 0)
        assert form.components[0].coeff((0,)) == (0, 0)

    def test_phi_of_dxdy_is_zero(self):
        p = DiffElement(2, {(1, 1): constant(2, 1)})
        form = phi(p)
        assert form.is_zero_to_order(6)

    def test_phi_of_eps_dx_is_zero(self):
        p = DiffElement(1, {(1,): scalar_mul(HyperComplex.epsilon(), constant(1, 1))})
        form = phi(p)
        assert form.is_zero_to_order(6)

    def test_phi_kills_products_of_I_elements(self):
        rng = random.Random(11)
        for _ in range(10):
            f = rpoly(1, {(rng.randint(1, 3),): rng.randint(-3, 3), (1,): 1})
            g = rpoly(1, {(rng.randint(1, 4),): rng.randint(-3, 3), (2,): 1})
            p = delta(f) * delta(g)
            assert phi(p).is_zero_to_order(8)
            assert in_I2(p).holds()

    def test_phi_of_delta_is_gradient(self):
        f = rpoly(2, {(2, 1): Q(3), (0, 2): Q(-1, 2)})
        form = phi(delta(f))
        # d/dx: 6xy ; d/dy: 3x^2 - y
        assert form.components[0].coeff((1, 1)) == (6, 0)
        assert form.components[1].coeff((2, 0)) == (3, 0)
        assert form.components[1].coeff((0, 1)) == (-1, 0)


class TestReduction:
    def test_delta_square_equals_2x_dx(self):
        d = delta(rpoly(1, {(2,): 1}))
        q = DiffElement(1, {(1,): rpoly(1, {(1,): 2})})
        assert in_I2(d - q).holds()
        assert all(a.eq_to_order(b, 8)
                   for a, b in zip(phi(d).components, phi(q).components))

    def test_eps_x_dx_reduces_to_zero(self):
        p = DiffElement(
            1, {(1,): scalar_mul(HyperComplex.epsilon(), variable(1, 0))}
        )
        assert in_I2(p).holds()
        assert phi(p).is_zero_to_order(8)

    def test_zero_reduces_to_zero(self):
        z = DiffElement(1, {})
        assert in_I2(z).holds()
        assert phi(z).is_zero_to_order(4)


def test_product_slices_match_a_nested_loop():
    a = delta(rpoly(1, {(3,): 2, (1,): 3}))
    b = DiffElement(1, {(2,): constant(1, 5), (0,): truncated_exp(D_I), (1,): variable(1, 0)})
    want: dict = {}
    for mu, p in a.slices.items():
        for rho, q in b.slices.items():
            key = (mu[0] + rho[0],)
            want[key] = poly_add(want[key], poly_mul(p, q)) if key in want else poly_mul(p, q)
    got = (a * b).slices
    assert list(got) == list(want)
    for key, p in want.items():
        for i in range(1, 5):
            assert list(got[key].materialize(i).items()) == list(p.materialize(i).items())


class TestDerivation:
    def test_x_times_x(self):
        X = rpoly(1, {(1,): 1})
        assert derivation_check(X, X).holds()

    def test_constant_left_factor(self):
        one = constant(1, 1)
        g = rpoly(1, {(3,): 2, (1,): -1})
        assert derivation_check(one, g).holds()

    def test_random_bounded_pairs(self):
        rng = random.Random(23)
        for _ in range(10):
            f = rpoly(2, {(rng.randint(0, 3), rng.randint(0, 2)): Q(rng.randint(-5, 5))
                          for _ in range(3)})
            g = rpoly(2, {(rng.randint(0, 2), rng.randint(0, 3)): Q(rng.randint(-5, 5))
                          for _ in range(3)})
            assert derivation_check(f, g).holds()

    def test_taylor_identity_bounded(self):
        f = rpoly(2, {(2, 2): Q(1, 3), (1, 0): 4})
        assert taylor_identity_check(f).holds()

    def test_delta_of_infinitesimal_in_I2(self):
        f = scalar_mul(HyperComplex.epsilon(), rpoly(1, {(2,): 1, (1,): 3}))
        assert in_I2(delta(f)).holds()


class TestFactorization:
    def test_eta_x_recipe(self):
        # P = eta X with eta = [1/i]: eps = [i^(-1/2)], Q = [i^(-1/2)] X
        P = scalar_mul(HyperComplex.epsilon(), variable(1, 0))
        eps, q = infinitesimal_factor(P)
        assert eps.source is P and q.source is P
        assert (eps.exponent, q.exponent) == (Q(1, 4), Q(-1, 4))
        assert classify_scaled(eps).verdict == INFINITESIMAL
        assert classify_scaled(q).verdict == INFINITESIMAL

    def test_zero_polynomial(self):
        z = zero_poly()
        eps, q = infinitesimal_factor(z)
        assert eps.source is z and q.source is z
        assert classify_scaled(q).verdict == INFINITESIMAL

    def test_band_source_factorizes(self):
        t = TailTerm.from_degree_rule(IndexExpr.const(1), eps=1 / I(), psi_re=1 / I())
        P = StructuredPoly(1, D_I, tails=(t,))
        eps, q = infinitesimal_factor(P)
        assert eps.source is P and q.source is P
        assert classify_scaled(eps).verdict == INFINITESIMAL

    @pytest.mark.parametrize("read,message", [
        (lambda q: q.row(3), "scaled cofactors carry irrational coefficients; "
                             "use exponent arithmetic on the factorization instead"),
        (lambda q: q.materialize(3), "scaled cofactors carry irrational coefficients; "
                                     "use exponent arithmetic on the factorization instead"),
        (lambda q: q.coeff((1,)), "scaled cofactors have no rational coefficient stream"),
    ], ids=["row", "materialize", "coeff"])
    def test_cofactor_refuses_to_materialize(self, read, message):
        _, q = infinitesimal_factor(scalar_mul(HyperComplex.epsilon(), variable(1, 0)))
        with pytest.raises(TypeError) as info:
            read(q)
        assert str(info.value) == message

    def test_non_infinitesimal_refused(self):
        with pytest.raises(FactorizationError):
            infinitesimal_factor(truncated_exp(D_I))

    def test_chain_exponents(self):
        P = scalar_mul(HyperComplex.epsilon(), variable(1, 0))
        chain = factor_chain(P, 3)
        assert chain.exponent_identity()
        assert chain.verify_at(range(1, 12))
        assert [e.exponent for e in chain.eps] == [Q(1, 4), Q(1, 8), Q(1, 16)]
        assert chain.cofactor.exponent == -Q(7, 16)

    def test_factors_on_other_sources_are_refused(self):
        # exponents that add up to 0 prove nothing when the factors are built on
        # other polynomials than the source
        wrong = Factorization(variable(1, 0), (EpsFactor(truncated_exp(D_I), Q(1, 4)),),
                              ScaledPoly(zero_poly(1), Q(-1, 4)))
        assert wrong.exponent_identity()
        assert not wrong.verify_at(range(1, 9))

    def test_cofactor_on_another_source_is_refused(self):
        P = scalar_mul(HyperComplex.epsilon(), variable(1, 0))
        chain = factor_chain(P, 2)
        other = scalar_mul(HyperComplex.epsilon(), constant(1, 1))
        wrong = Factorization(P, chain.eps, ScaledPoly(other, chain.cofactor.exponent))
        assert wrong.exponent_identity()
        assert not wrong.verify_at(range(1, 9))
        # the same polynomial built again is the same source
        again = scalar_mul(HyperComplex.epsilon(), variable(1, 0))
        assert Factorization(P, chain.eps, ScaledPoly(again, chain.cofactor.exponent)) \
            .verify_at(range(1, 9))
