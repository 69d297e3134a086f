"""Standard-part maps: polynomials, morphisms, presentations, zero sets."""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.families import make_bounded, make_infinitesimal, random_bounded_pair
from hyperpoly.hypernat import HyperNatural
from hyperpoly.hypernum import HyperComplex
from hyperpoly.indexexpr import IndexExpr
from hyperpoly.interpoly import (
    StructuredPoly,
    TailTerm,
    moving_monomial,
    poly_add,
    poly_mul,
    scalar_mul,
    truncated_exp,
    truncated_geometric,
    variable,
    constant,
)
from hyperpoly.roots import bisection
from hyperpoly.stdpart import (
    AlgebraPresentation,
    StandardPartError,
    StandardPowerSeries,
    lift_series,
    st_functor,
    st_morphism,
    st_poly,
    zero_set_compare,
)

I = IndexExpr.index
D_I = HyperNatural.identity()


def rational_poly(coeffs: dict) -> StructuredPoly:
    deg = max(sum(k) for k in coeffs) if coeffs else 0
    n = len(next(iter(coeffs))) if coeffs else 1
    return StructuredPoly(
        n, HyperNatural.constant(deg),
        {k: HyperComplex.from_rational(v) for k, v in coeffs.items()},
    )


class TestStPoly:
    def test_truncated_exp_maps_to_exp(self):
        s = st_poly(truncated_exp(D_I))
        for k in range(10):
            assert s.coeff((k,)) == (Q(1, math.factorial(k)), Q(0))
        assert s.entire

    def test_eps_x_maps_to_zero(self):
        P = scalar_mul(HyperComplex.epsilon(), variable(1, 0))
        s = st_poly(P)
        assert s.is_constant_to_order(8)
        assert s.coeff((0,)) == (0, 0)

    def test_perturbed_x_plus_infinite_monomial(self):
        # (1 + 1/i) X + X^d  ->  X
        P = poly_add(
            scalar_mul(HyperComplex.from_expr(1 + 1 / I()), variable(1, 0)),
            moving_monomial(D_I, coeff=HyperComplex.from_expr(1 / IndexExpr.factorial())),
        )
        s = st_poly(P)
        assert s.coeff((1,)) == (1, 0)
        for k in (0, 2, 3, 4):
            assert s.coeff((k,)) == (0, 0)

    def test_pole_at_an_early_index_is_never_read(self):
        # sum(k=0..d, X^k/(i - 3)^k), d = i: the band has no value at index 3
        p = StructuredPoly(1, D_I, tails=(TailTerm((IndexExpr.const(1),), eps=1 / (I() - 3)),))
        assert st_poly(p).coefficients_up_to(6) == {(0,): (Q(1), Q(0))}

    def test_unbounded_is_refused_naming_clause(self):
        with pytest.raises(StandardPartError) as e:
            st_poly(truncated_geometric(D_I))
        assert "clause ii" in str(e.value)

    def test_ring_homomorphism_on_random_bounded_pairs(self):
        rng = random.Random(1)
        for _ in range(20):
            p = rational_poly(
                {(rng.randint(0, 4),): Q(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(3)}
            )
            q = truncated_exp(D_I)
            lhs = st_poly(poly_mul(p, q))
            rhs = st_poly(p) * st_poly(q)
            assert lhs.eq_to_order(rhs, 12)
            lhs_s = st_poly(poly_add(p, q))
            rhs_s = st_poly(p) + st_poly(q)
            assert lhs_s.eq_to_order(rhs_s, 12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_ring_homomorphism_on_drawn_bounded_pairs(self, seed):
        # criterion 2's pairs at a drawn seed; st of the product is taken of poly_mul's result
        p, q = random_bounded_pair(random.Random(seed))
        sp, sq = st_poly(p), st_poly(q)
        assert st_poly(poly_add(p, q)).eq_to_order(sp + sq, 12)
        assert st_poly(poly_mul(p, q)).eq_to_order(sp * sq, 12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_adding_an_infinitesimal_keeps_the_standard_part(self, seed):
        rng = random.Random(seed)
        p = make_bounded(rng)
        e = make_infinitesimal(rng)
        while e.n != p.n:
            e = make_infinitesimal(rng)
        assert st_poly(poly_add(p, e)).eq_to_order(st_poly(p), 12)

    def test_kernel_is_infinitesimal(self):
        P = scalar_mul(HyperComplex.epsilon(), truncated_exp(D_I))
        s = st_poly(P)
        assert s.is_constant_to_order(12) and s.coeff((0,)) == (0, 0)


class TestSeriesArity:
    """Series in different numbers of variables do not combine."""

    def test_sum_product_and_comparison_refuse_arity_mismatch(self):
        a = StandardPowerSeries.from_dict(1, {(0,): 1, (1,): 2})
        b = StandardPowerSeries.from_dict(2, {(0, 0): 1, (1, 0): 3})
        for x, y in ((a, b), (b, a), (StandardPowerSeries.exp(), b)):
            with pytest.raises(ValueError, match="variable-count mismatch"):
                x + y
            with pytest.raises(ValueError, match="variable-count mismatch"):
                x * y
            with pytest.raises(ValueError, match="variable-count mismatch"):
                x.eq_to_order(y, 4)

    def test_coefficient_lookup_refuses_arity_mismatch(self):
        for s, nu in ((StandardPowerSeries.exp(), (3, 5)),
                      (StandardPowerSeries.from_dict(1, {(0,): 1}), (0, 0)),
                      (StandardPowerSeries.from_dict(2, {(0, 0): 1}), (0,))):
            with pytest.raises(ValueError, match="does not fit a series"):
                s.coeff(nu)

    def test_same_arity_still_combines(self):
        a = StandardPowerSeries.from_dict(2, {(0, 0): 1, (0, 1): Q(1, 2)})
        b = StandardPowerSeries.from_dict(2, {(0, 0): 1, (1, 0): 3})
        assert (a + b).coeff((1, 0)) == (3, 0)
        assert (a * b).coeff((1, 1)) == (Q(3, 2), 0)
        assert (a * b).eq_to_order(b * a, 4)


class TestSection:
    def test_truncate_then_st_is_identity(self):
        for series in (
            StandardPowerSeries.exp(),
            StandardPowerSeries.sin_like(),
            StandardPowerSeries.damped_rational(),
        ):
            for d in (D_I, HyperNatural.affine(2, 3)):
                lifted = lift_series(series, d)
                back = st_poly(lifted)
                assert back.eq_to_order(series, 12)

    def test_finite_support_series_roundtrip(self):
        series = StandardPowerSeries.from_dict(1, {(0,): Q(3), (2,): Q(-1, 2)})
        lifted = lift_series(series, D_I)
        assert st_poly(lifted).eq_to_order(series, 12)


class TestSeriesFromBands:
    """The named series read their coefficients from their bands."""

    def test_coefficients_to_order_30(self):
        series = {
            "exp": (StandardPowerSeries.exp(), lambda m: Q(1, math.factorial(m))),
            "sin_like": (StandardPowerSeries.sin_like(),
                         lambda m: Q((-1) ** (m // 2), math.factorial(m)) if m % 2 else Q(0)),
            "damped_rational": (StandardPowerSeries.damped_rational(),
                                lambda m: Q(1, math.factorial(m) * (m + 1))),
        }
        for name, (s, rule) in series.items():
            for m in range(31):
                re, im = s.coeff((m,))
                assert (re, im) == (rule(m), 0), (name, m)
                assert type(re) is Q and type(im) is Q

    def test_lift_is_structured(self):
        for s in (StandardPowerSeries.exp(), StandardPowerSeries.sin_like(),
                  StandardPowerSeries.damped_rational()):
            assert isinstance(lift_series(s, D_I), StructuredPoly)


class TestMorphism:
    def test_polynomial_substitution(self):
        # images (X^2, X+1): h = Y1 + Y2 -> x^2 + x + 1
        g1 = rational_poly({(2,): Q(1)})
        g2 = rational_poly({(1,): Q(1), (0,): Q(1)})
        mor = st_morphism([g1, g2])
        h = StandardPowerSeries.from_dict(2, {(1, 0): Q(1), (0, 1): Q(1)})
        out = mor.apply(h, order=6)
        assert out.coeff((0,)) == (1, 0)
        assert out.coeff((1,)) == (1, 0)
        assert out.coeff((2,)) == (1, 0)

    def test_commuting_square_with_perturbed_identity(self):
        # image (1 + 1/i) X: st-morphism is substitution by x
        g = scalar_mul(HyperComplex.from_expr(1 + 1 / I()), variable(1, 0))
        mor = st_morphism([g])
        h_internal = truncated_exp(D_I)
        # st(u(h)) where u substitutes g into h
        uh = _substitute_series_poly(h_internal, g, order=10)
        lhs = st_poly(uh)
        rhs = mor.apply(st_poly(h_internal), order=10)
        assert lhs.eq_to_order(rhs, 10)

    def test_eps_image_is_evaluation_at_zero(self):
        g = scalar_mul(HyperComplex.epsilon(), variable(1, 0))
        mor = st_morphism([g])
        h = StandardPowerSeries.from_dict(1, {(0,): Q(7), (1,): Q(2), (3,): Q(5)})
        out = mor.apply(h, order=8)
        assert out.coeff((0,)) == (7, 0)
        assert out.is_constant_to_order(8)

    def test_identity_and_composition(self):
        x = rational_poly({(1,): Q(1)})
        ident = st_morphism([x])
        h = StandardPowerSeries.exp()
        assert ident.apply(h, 8).eq_to_order(h, 8)

    def test_functoriality_respects_composition(self):
        from hyperpoly.interpoly import poly_compose

        rng = random.Random(17)
        for _ in range(2):
            # u: X -> g (univariate), v: X -> w; st(v after u) = st(v) after st(u)
            g = rational_poly({(k,): Q(rng.randint(-3, 3)) for k in (0, 1, 2)})
            w = rational_poly({(k,): Q(rng.randint(-3, 3)) for k in (1, 2)})
            composed = st_morphism([poly_compose(g, [w])])
            mor_g = st_morphism([g])
            mor_w = st_morphism([w])
            h = StandardPowerSeries.from_dict(1, {(0,): Q(2), (1,): Q(-1), (3,): Q(5)})
            lhs = composed.apply(h, 8)
            rhs = mor_w.apply(mor_g.apply(h, 8), 8)
            assert lhs.eq_to_order(rhs, 8)

    def test_constant_term_image_refuses_an_infinitely_supported_series(self):
        # with X -> 1 + X every term of h reaches the constant term, so a
        # truncation of exp would be returned as if it were exact
        mor = st_morphism([rational_poly({(0,): Q(1), (1,): Q(1)})])
        with pytest.raises(ValueError, match="finitely supported"):
            mor.apply(StandardPowerSeries.exp(), 6)

    def test_constant_term_image_substitutes_every_term_of_the_support(self):
        # (1 + x)^20 to order 3, although the support lies past display_order
        mor = st_morphism([rational_poly({(0,): Q(1), (1,): Q(1)})])
        out = mor.apply(StandardPowerSeries.from_dict(1, {(20,): 1}), 3)
        assert out.coefficients_up_to(3) == {
            (k,): (Q(math.comb(20, k)), Q(0)) for k in range(4)}

    def test_unbounded_image_refused(self):
        with pytest.raises(StandardPartError):
            st_morphism([truncated_geometric(D_I)])


def _substitute_series_poly(p, g, order: int):
    """u(p) for u : X -> g, truncating p to the given explicit order."""
    from hyperpoly.interpoly import poly_compose, zero_poly

    explicit = {}
    for k in range(order + 1):
        c = p.coeff((k,))
        explicit[(k,)] = c
    trunc = StructuredPoly(1, HyperNatural.constant(order), explicit)
    return poly_compose(trunc, [g])


class TestFunctor:
    def test_eps_generator_maps_to_zero_presentation(self):
        gens = [scalar_mul(HyperComplex.epsilon(), variable(1, 0))]
        out = st_functor(AlgebraPresentation("bounded", 1, gens))
        assert out.side == "analytic"
        assert out.ideal_gens[0].is_constant_to_order(10)

    def test_exp_minus_two_generator(self):
        g = poly_add(truncated_exp(D_I), constant(1, -2))
        out = st_functor(AlgebraPresentation("bounded", 1, [g]))
        s = out.ideal_gens[0]
        assert s.coeff((0,)) == (-1, 0)  # 1 - 2
        assert s.coeff((3,)) == (Q(1, 6), 0)

    def test_essential_surjectivity_roundtrip(self):
        g = StandardPowerSeries.exp()
        lifted = lift_series(g, D_I)
        out = st_functor(AlgebraPresentation("bounded", 1, [lifted]))
        assert out.ideal_gens[0].eq_to_order(g, 12)


class TestZeroSets:
    def test_x_minus_one(self):
        P = rational_poly({(1,): Q(1), (0,): Q(-1)})
        rep = zero_set_compare(P, 2, [3, 5, 9])
        for i in (3, 5, 9):
            assert len(rep.roots_by_index[i]) == 1
            assert abs(rep.roots_by_index[i][0] - 1) < 1e-9
        assert rep.decreasing

    def test_truncated_exp_minus_two_converges_to_ln2(self):
        P = poly_add(truncated_exp(D_I), constant(1, -2))
        rep = zero_set_compare(P, 2, [10, 20, 40])
        ln2 = bisection(lambda x: math.exp(x) - 2, 0.0, 1.0)
        dists = []
        for i, tol in ((10, 1e-3), (20, 1e-6), (40, 1e-10)):
            nearest = min(abs(r - ln2) for r in rep.roots_by_index[i])
            dists.append(nearest)
            assert nearest < tol
        # distances shrink along the index list (up to float noise)
        assert dists[1] <= dists[0] and dists[2] <= dists[1] + 1e-15

    def test_eps_perturbed_square(self):
        # X^2 + eps X has roots {0, -eps_i}: both approach Z(x^2) = {0}
        P = poly_add(
            rational_poly({(2,): Q(1)}),
            scalar_mul(HyperComplex.epsilon(), variable(1, 0)),
        )
        rep = zero_set_compare(P, 1, [4, 16, 64])
        assert rep.matching_distance[64] < rep.matching_distance[4]
        assert rep.matching_distance[64] <= 1 / 64 + 1e-9

    def test_constant_standard_part_refused(self):
        P = scalar_mul(HyperComplex.epsilon(), variable(1, 0))
        with pytest.raises(StandardPartError):
            zero_set_compare(P, 1, [4])
