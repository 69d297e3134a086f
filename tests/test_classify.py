"""Classifier criteria, the evaluation oracle, and coefficient recovery."""

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import classify
from hyperpoly.families import labeled_family, random_bounded_pair
from hyperpoly.hypernat import HyperNatural
from hyperpoly.hypernum import HyperComplex
from hyperpoly.indexexpr import IndexExpr
from hyperpoly.parser import bind_declarations, build_poly, parse
from hyperpoly.classify import (
    BOUNDED,
    INFINITESIMAL,
    UNBOUNDED,
    cauchy_all_coefficients,
    cauchy_coefficient,
    classify_poly,
    coefficient_bound_check,
    sampling_oracle,
)
from hyperpoly.interpoly import (
    StructuredPoly,
    TailTerm,
    geometric_tail,
    moving_monomial,
    partial_derivative,
    poly_add,
    poly_mul,
    scalar_mul,
    truncated_exp,
    truncated_geometric,
    variable,
    zero_poly,
)
from hyperpoly.verdicts import UNDETERMINED

I = IndexExpr.index
D_I = HyperNatural.identity()


class TestClassifyPoly:
    def test_truncated_exp_is_bounded(self):
        c = classify_poly(truncated_exp(D_I))
        assert c.verdict == BOUNDED
        assert c.infinitesimal == "no"  # the constant term is 1

    def test_eps_x_is_infinitesimal(self):
        P = scalar_mul(HyperComplex.epsilon(), variable(1, 0))
        c = classify_poly(P)
        assert c.verdict == INFINITESIMAL

    def test_geometric_tail_is_unbounded(self):
        c = classify_poly(truncated_geometric(D_I))
        assert c.verdict == UNBOUNDED
        assert "clause ii" in c.certificate.details[0]

    def test_moving_monomial_unbounded(self):
        c = classify_poly(moving_monomial(D_I))  # X^d
        assert c.verdict == UNBOUNDED

    def test_factorially_damped_top_is_fine(self):
        # (1/i!) X^(d_i) maps bounded points to infinitesimals
        P = moving_monomial(D_I, coeff=HyperComplex.from_expr(1 / IndexExpr.factorial()))
        c = classify_poly(P)
        assert c.verdict == INFINITESIMAL

    def test_infinite_explicit_coefficient(self):
        P = scalar_mul(HyperComplex.omega(), variable(1, 0))
        c = classify_poly(P)
        assert c.verdict == UNBOUNDED
        assert "clause i" in c.certificate.details[0]

    def test_half_powers_tail_unbounded(self):
        # phi(m) = (1/2)^m has root-test limit 1/2 > 0: not absolutely bounded
        t = TailTerm.from_degree_rule(IndexExpr.geometric(Q(1, 2)))
        c = classify_poly(StructuredPoly(1, D_I, tails=(t,)))
        assert c.verdict == UNBOUNDED

    def test_eps_power_band_is_infinitesimal(self):
        # a(m, i) = (1/i)^(m+1): every standard coefficient vanishes, and the
        # root test decays along both rays
        t = TailTerm.from_degree_rule(
            IndexExpr.const(1), eps=1 / I(), psi_re=1 / I()
        )
        c = classify_poly(StructuredPoly(1, D_I, tails=(t,)))
        assert c.verdict == INFINITESIMAL

    def test_finite_degree_bounded_coefficients(self):
        P = StructuredPoly(
            1,
            HyperNatural.constant(3),
            {(k,): HyperComplex.from_rational(Q(3, k + 1)) for k in range(4)},
        )
        assert classify_poly(P).verdict == BOUNDED

    def test_zero_poly(self):
        assert classify_poly(zero_poly()).verdict == INFINITESIMAL

    def test_cancelling_bands_merge_out(self):
        P = poly_add(
            truncated_geometric(D_I), scalar_mul(-1, truncated_geometric(D_I))
        )
        assert classify_poly(P).verdict == INFINITESIMAL


def _built(text: str):
    """The polynomial the ``classify`` command builds from ``text`` (d = i)."""
    program = parse(text)
    env = bind_declarations(program)
    env.hypernats["d"] = D_I
    return build_poly(program.expression, env)


def _verdict(verdict, infinitesimal, *details, symbolic=True):
    return {"verdict": verdict, "infinitesimal": infinitesimal,
            "certificate": {"kind": "root-test", "details": list(details),
                            "symbolic": symbolic}}


_OSCILLATING = 1 + IndexExpr.geometric(-1)   # 2, 0, 2, 0, ...
_SHARED_BAND = geometric_tail()

# clauses the generated families never reach, each with its whole report
CLAUSE_CASES = {
    "two-live-bands": (
        lambda: _built("sum(k=0..d, X^k) - sum(k=0..d, 2^k*X^k)"),
        _verdict("undetermined", "unknown",
                 "band root test undecided", "band root test undecided")),
    "top-and-band": (
        lambda: poly_add(moving_monomial(D_I, 2), truncated_geometric(D_I)),
        _verdict("undetermined", "unknown",
                 "top coefficient and band share the infinite range")),
    "one-band-listed-twice": (
        lambda: StructuredPoly(1, D_I, tails=(_SHARED_BAND, _SHARED_BAND)),
        _verdict("unbounded", "no",
                 "clause ii fails: band root test has a nonzero limit on a ray")),
    "equal-bands": (
        lambda: StructuredPoly(1, D_I, tails=(geometric_tail(), geometric_tail())),
        _verdict("undetermined", "unknown",
                 "band root test undecided", "band root test undecided")),
    "band-eps-i": (
        lambda: StructuredPoly(1, D_I, tails=(TailTerm((IndexExpr.const(1),), eps=I()),)),
        _verdict("unbounded", "no",
                 "clause i fails: band coefficient at |nu| = 1 is infinite")),
    "finite-top-omega": (
        lambda: moving_monomial(HyperNatural.constant(3), HyperComplex.omega()),
        _verdict("unbounded", "no", "clause i fails: top coefficient infinite")),
    "numeric-top": (
        lambda: moving_monomial(D_I, HyperComplex.from_generator(lambda i: 1.0)),
        _verdict("undetermined", "unknown", "numeric top coefficient", symbolic=False)),
    "oscillating-top": (
        lambda: moving_monomial(D_I, HyperComplex.from_expr(_OSCILLATING)),
        _verdict("undetermined", "unknown", "top coefficient class undecided")),
    "oscillating-band-degree-4": (
        lambda: StructuredPoly(1, HyperNatural.constant(4),
                               tails=(TailTerm((IndexExpr.const(1),), psi_re=_OSCILLATING),)),
        _verdict("undetermined", "unknown", "band finite-range class undecided")),
}


@pytest.mark.parametrize("name", list(CLAUSE_CASES))
def test_clause_reports(name):
    build, want = CLAUSE_CASES[name]
    assert classify_poly(build()).to_json() == want


# sha256 of the concatenated verdict JSON of the families below, captured
# before the classifier read each band in one pass; any change to a verdict,
# a flag or a certificate text changes it
FAMILY_DIGEST = "e4422a31e4d63d0623be5fb3722f6f2f6a9e912f80e18c39e84165c3af672111"


def test_family_verdict_digest():
    digest = hashlib.sha256()
    for seed in (1, 101, 202, 9001):
        polys = [p for _, p in labeled_family(seed, 200)]
        rng = random.Random(seed)
        for _ in range(50):
            p, q = random_bounded_pair(rng)
            polys += [p, q, poly_add(p, q)]
        for p in polys:
            digest.update(json.dumps(classify_poly(p).to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == FAMILY_DIGEST


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       scale=st.fractions(-50, 50, max_denominator=50).filter(lambda q: q != 0))
def test_appreciable_scaling_keeps_the_class(seed, scale):
    for _, p in labeled_family(seed, 20):
        before, after = classify_poly(p), classify_poly(scalar_mul(scale, p))
        assert (after.verdict, after.infinitesimal) == (before.verdict, before.infinitesimal)


def test_each_band_is_read_once(monkeypatch):
    calls = Counter()
    for name in ("_band_ray_values", "_band_key_walk"):
        def counted(*args, _name=name, _fn=getattr(classify, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(classify, name, counted)
    bands = (geometric_tail(),
             TailTerm.from_degree_rule(IndexExpr.geometric(Q(1, 2))),
             TailTerm.from_degree_rule(IndexExpr.const(1), psi_re=IndexExpr.const(2)))
    c = classify_poly(StructuredPoly(1, D_I, tails=bands))
    assert c.certificate.details == ("band root test undecided",) * 3
    assert calls == {"_band_ray_values": 3, "_band_key_walk": 3}


def test_band_live_past_the_key_walk_is_undetermined():
    # phi(m) = m(m-1)...(m-255)/m! vanishes below 256; the coefficient at 256 is i
    m = IndexExpr.index()
    phi = IndexExpr.const(1)
    for j in range(256):
        phi = phi * (m - j)
    band = TailTerm((phi / IndexExpr.factorial(),), psi_re=IndexExpr.index())
    p = StructuredPoly(1, D_I, tails=(band,))
    assert p.coeff_value_at((256,), 300) == (Q(300), Q(0))
    c = classify_poly(p)
    assert c.verdict == "undetermined"
    assert c.certificate.details == ("band finite-range class undecided",)


class TestRingIdeals:
    def test_infinitesimal_times_bounded(self):
        eps_x = scalar_mul(HyperComplex.epsilon(), variable(1, 0))
        prod = poly_mul(eps_x, truncated_exp(D_I))
        assert classify_poly(prod).verdict == INFINITESIMAL

    def test_bounded_times_bounded(self):
        prod = poly_mul(truncated_exp(D_I), truncated_exp(D_I))
        c = classify_poly(prod)
        assert c.verdict == BOUNDED

    def test_bounded_plus_bounded(self):
        s = poly_add(truncated_exp(D_I), truncated_exp(HyperNatural.affine(2, 3)))
        assert classify_poly(s).verdict == BOUNDED

    def test_derivative_stability(self):
        for p, expect in [
            (truncated_exp(D_I), BOUNDED),
            (scalar_mul(HyperComplex.epsilon(), variable(1, 0)), INFINITESIMAL),
        ]:
            for order in (1, 2, 3):
                d = partial_derivative(p, (order,))
                assert classify_poly(d).verdict == expect


class TestSamplingOracle:
    def test_truncated_exp_bounded_at_radius_2(self):
        rep = sampling_oracle(truncated_exp(D_I), sample_count=8, radius=2, horizon=32)
        assert rep.bounded.holds()
        assert rep.infinitesimal.fails()

    def test_omega_x_fails_boundedness(self):
        P = scalar_mul(HyperComplex.omega(), variable(1, 0))
        rep = sampling_oracle(P, sample_count=4, radius=1, horizon=32)
        # linear growth in the coefficient is below the ratio threshold, but
        # the geometric-tail witnesses below must fire; omega X is caught by
        # the symbolic classifier instead
        geom = truncated_geometric(D_I)
        rep2 = sampling_oracle(geom, sample_count=4, radius=3, horizon=32)
        assert rep2.bounded.fails()
        assert rep2.witness is not None

    def test_zero_is_infinitesimal(self):
        rep = sampling_oracle(zero_poly(), sample_count=4, radius=1, horizon=16)
        assert rep.bounded.holds()
        assert rep.infinitesimal.holds()

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_refused(self, horizon):
        with pytest.raises(ValueError):
            sampling_oracle(truncated_geometric(D_I), sample_count=4, radius=3,
                            horizon=horizon)

    def test_window_without_materialized_index_is_undetermined(self):
        # psi = 1/((i-1)(i-2)) has no value at i = 1, 2: the window is empty
        band = TailTerm((IndexExpr.const(1),), psi_re=1 / ((I() - 1) * (I() - 2)))
        P = StructuredPoly(1, D_I, tails=(band,))
        rep = sampling_oracle(P, sample_count=4, radius=3, horizon=2)
        assert rep.bounded.kind == rep.infinitesimal.kind == UNDETERMINED
        assert rep.bounded.witness == rep.infinitesimal.witness == 2
        assert rep.witness is None
        # until five indices materialize the last quarter holds one value and
        # no growth ratio, so the oracle still declines to decide
        for horizon in (3, 4, 5, 6):
            rep = sampling_oracle(P, sample_count=4, radius=3, horizon=horizon)
            assert rep.bounded.kind == rep.infinitesimal.kind == UNDETERMINED
            assert rep.bounded.witness == horizon
        assert sampling_oracle(P, sample_count=4, radius=3, horizon=7).bounded.decided

    def test_unbounded_confirmation_radius_sweep(self):
        geom = truncated_geometric(D_I)
        confirmed = False
        for r in (1, 2, 3, 4):
            rep = sampling_oracle(geom, sample_count=4, radius=r, horizon=32)
            if rep.bounded.fails():
                confirmed = True
                break
        assert confirmed


class TestCauchy:
    def test_univariate_linear_coefficient(self):
        P = StructuredPoly(
            1,
            HyperNatural.constant(2),
            {
                (0,): HyperComplex.from_rational(1),
                (1,): HyperComplex.from_rational(2),
                (2,): HyperComplex.from_rational(3),
            },
        )
        got = cauchy_coefficient(P, (1,), 1, at_index=5, nodes=8)
        assert abs(got - 2) < 1e-10

    def test_beyond_degree_is_zero(self):
        P = StructuredPoly(
            1, HyperNatural.constant(1), {(1,): HyperComplex.from_rational(4)}
        )
        got = cauchy_coefficient(P, (5,), 1, at_index=3, nodes=8)
        assert abs(got) < 1e-10

    def test_bivariate_product_coefficient(self):
        P = StructuredPoly(
            2, HyperNatural.constant(2), {(1, 1): HyperComplex.from_rational(1)}
        )
        got = cauchy_coefficient(P, (1, 1), 2, at_index=1, nodes=8)
        assert abs(got - 1) < 1e-10

    def test_too_few_nodes_refused(self):
        P = truncated_exp(HyperNatural.constant(6))
        with pytest.raises(ValueError):
            cauchy_coefficient(P, (2,), 1, at_index=1, nodes=6)

    def test_batch_recovers_all(self):
        rng = random.Random(4)
        P = StructuredPoly(
            2,
            HyperNatural.constant(5),
            {
                (rng.randint(0, 3), rng.randint(0, 2)): HyperComplex.from_rational(
                    rng.randint(-9, 9)
                )
                for _ in range(6)
            },
        )
        mat = P.materialize(2)
        got = cauchy_all_coefficients(P, 1, at_index=2, nodes=9)
        for nu, c in mat.items():
            assert abs(got[nu] - complex(c[0], c[1])) < 1e-8


class TestBoundCheck:
    def test_truncated_exp_no_violations(self):
        rep = coefficient_bound_check(truncated_exp(D_I), 1, at_index=12)
        assert rep["violations"] == []
        assert abs(rep["M_R"] - math.e) < 1e-2

    def test_x_at_radius_2(self):
        P = variable(1, 0)
        rep = coefficient_bound_check(P, 2, at_index=1)
        assert rep["M_R"] == pytest.approx(2.0, abs=1e-9)
        assert rep["violations"] == []

    def test_zero_poly(self):
        rep = coefficient_bound_check(zero_poly(), 1, at_index=1)
        assert rep["M_R"] == 0.0
        assert rep["violations"] == []
