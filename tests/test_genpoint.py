"""Generic points, nonstandard zero sets, and Nullstellensatz witnesses."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperpoly
from hyperpoly import genpoint
from hyperpoly.genpoint import (
    GridExhausted,
    LazyHyperPoint,
    Parametrization,
    RationalFunc,
    evaluation_embedding_check,
    generic_point,
    id_of_point,
    integer_poly_corpus,
    nullstellensatz_witness,
    param_grid,
    qpoly,
    rationals_by_height,
    v_of_ideal,
)


def line_corpus():
    return integer_poly_corpus(1, 3)


def plane_corpus():
    return integer_poly_corpus(2, 2)


def zy_param():
    # V = Z(Y) in C^2: t -> (t, 0)
    return Parametrization.from_polys([qpoly(1, {(1,): 1}), qpoly(1, {})])


class TestEnumerations:
    def test_rationals_order(self):
        got = []
        gen = rationals_by_height()
        for _ in range(7):
            got.append(next(gen))
        assert got[:3] == [0, 1, -1]
        assert Q(1, 2) in got

    def test_corpus_is_deterministic_and_nonzero(self):
        a = [next(integer_poly_corpus(1, 3)) for _ in range(1)]
        b = [next(integer_poly_corpus(1, 3)) for _ in range(1)]
        assert a == b
        gen = integer_poly_corpus(1, 2)
        for _ in range(50):
            assert not next(gen).is_zero()

    @pytest.mark.parametrize("height", [0, -2])
    def test_corpus_height_below_one_is_refused(self, height):
        # a corpus that ignores the height raises the degree forever without
        # yielding, so the draw runs in a child process the timeout can stop
        src = os.path.dirname(os.path.dirname(hyperpoly.__file__))
        draw = ("from hyperpoly.genpoint import integer_poly_corpus; "
                f"next(integer_poly_corpus(1, {height}))")
        proc = subprocess.run(
            [sys.executable, "-c", draw], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=30,
        )
        assert f"ValueError: corpus height must be >= 1, got {height}" in proc.stderr

    def test_param_grid_bivariate(self):
        gen = param_grid(2)
        seen = [next(gen) for _ in range(10)]
        assert (Q(0), Q(0)) in seen


class TestVAndId:
    def test_point_on_axis(self):
        x = LazyHyperPoint(2, lambda i: (Q(0), Q(1, i)))
        X = qpoly(2, {(1, 0): 1})
        Y = qpoly(2, {(0, 1): 1})
        assert v_of_ideal(x, [X]).holds()
        # the Y coordinate is 1/i: never exactly zero
        assert v_of_ideal(x, [Y]).fails()

    def test_id_of_constant_origin(self):
        x = LazyHyperPoint.constant((0, 0))
        X = qpoly(2, {(1, 0): 1})
        Y = qpoly(2, {(0, 1): 1})
        X1 = qpoly(2, {(1, 0): 1, (0, 0): 1})
        got = id_of_point(x, [X, Y, X1], horizon=24)
        assert got == [X, Y]

    def test_id_empty_candidates(self):
        x = LazyHyperPoint.constant((0,))
        assert id_of_point(x, [], horizon=8) == []

    def test_generic_point_on_hyperbola(self):
        # V = Z(XY - 1), param t -> (t, 1/t) via rational coords
        from hyperpoly.genpoint import RationalFunc

        t = qpoly(1, {(1,): 1})
        one = qpoly(1, {(0,): 1})
        param = Parametrization(
            1, (RationalFunc.of(t), RationalFunc.of(one, t))
        )
        g = generic_point(param, plane_corpus)
        xy_minus_1 = qpoly(2, {(1, 1): 1, (0, 0): -1})
        assert v_of_ideal(g, [xy_minus_1], horizon=24).holds()


class TestGenericPoint:
    def test_line_avoids_corpus_prefix(self):
        g = generic_point(Parametrization.line(), line_corpus)
        for i in (1, 5, 12, 20):
            entries = g.log(i)
            avoid = [e for e in entries if e.kind == "avoidance"]
            assert len(avoid) == i
            assert all(e.margin_squared > 0 for e in avoid)

    def test_id_of_generic_point_is_trivial(self):
        g = generic_point(Parametrization.line(), line_corpus)
        candidates = [
            qpoly(1, {(1,): 1}),
            qpoly(1, {(2,): 1, (1,): -1}),
            qpoly(1, {}),
        ]
        got = id_of_point(g, candidates, horizon=20)
        assert got == [candidates[2]]  # only the zero polynomial survives

    def test_zy_plane_generic_point(self):
        g = generic_point(zy_param(), plane_corpus)
        Y = qpoly(2, {(0, 1): 1})
        X_minus_1 = qpoly(2, {(1, 0): 1, (0, 0): -1})
        assert v_of_ideal(g, [Y], horizon=20).holds()
        assert id_of_point(g, [Y, X_minus_1], horizon=20) == [Y]

    def test_halo_variant_stays_close(self):
        g = generic_point(Parametrization.line(), line_corpus, halo_center=(0,))
        for i in (2, 6, 14):
            (t,) = g.point(i)
            assert abs(t) <= Q(1, i)
        # once X itself enters the avoidance prefix, the point leaves 0
        for i in (11, 14, 20):
            assert g.point(i)[0] != 0

    def test_zariski_minimality_against_corpus(self):
        # no enumerated strictly smaller variety Z(Y, X - c) contains the point
        g = generic_point(zy_param(), plane_corpus)
        for c in range(-2, 3):
            shifted = qpoly(2, {(1, 0): 1, (0, 0): -c})
            assert not id_of_point(g, [shifted], horizon=16)

    def test_constraint_log_prefix_property(self):
        g = generic_point(Parametrization.line(), line_corpus)
        for L in (3, 7, 15):
            for i in range(L, L + 3):
                avoid = [e for e in g.log(i) if e.kind == "avoidance"]
                assert len(avoid) >= L


class TestDuality:
    def test_v_of_sum_is_intersection(self):
        import random as _random

        rng = _random.Random(41)
        for _ in range(20):
            f = qpoly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                          for _ in range(2)})
            g = qpoly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                          for _ in range(2)})
            p = LazyHyperPoint.constant((rng.randint(-2, 2), rng.randint(-2, 2)))
            both = v_of_ideal(p, [f, g], horizon=8).holds()
            sep = (v_of_ideal(p, [f], horizon=8).holds()
                   and v_of_ideal(p, [g], horizon=8).holds())
            assert both == sep

    def test_id_of_union_is_intersection(self):
        a = LazyHyperPoint.constant((0, 1))
        b = LazyHyperPoint.constant((0, -1))
        cands = [
            qpoly(2, {(1, 0): 1}),
            qpoly(2, {(0, 2): 1, (0, 0): -1}),
            qpoly(2, {(0, 1): 1}),
        ]
        ia = set(map(id, id_of_point(a, cands, 8)))
        ib = set(map(id, id_of_point(b, cands, 8)))
        # union of the two points: candidates vanishing on both
        union = [
            f for f in cands
            if all(f.eval_at(p.point(i)) == 0 for p in (a, b) for i in range(1, 9))
        ]
        assert set(map(id, union)) == ia & ib

    def test_galois_inclusion(self):
        g = generic_point(Parametrization.line(), line_corpus)
        f = qpoly(1, {(1,): 1})
        # x in V(Id(x)) on tested candidates
        vanishing = id_of_point(g, [f], horizon=12)
        assert all(v_of_ideal(g, [h], horizon=12).holds() for h in vanishing)


class TestEvaluationEmbedding:
    def test_powers_are_separated(self):
        g = generic_point(Parametrization.line(), line_corpus)
        residues = [qpoly(1, {(k,): 1}) for k in (1, 2, 3)]
        v = evaluation_embedding_check(g, residues, horizon=24)
        assert v.holds()

    def test_constant_zero_point_fails(self):
        x = LazyHyperPoint.constant((0,))
        residues = [qpoly(1, {(1,): 1}), qpoly(1, {(2,): 1})]
        v = evaluation_embedding_check(x, residues, horizon=16)
        assert v.fails()

    def test_single_residue_vacuous(self):
        x = LazyHyperPoint.constant((0,))
        assert evaluation_embedding_check(x, [qpoly(1, {(1,): 1})]).holds()

    def test_coincident_residues_rejected(self):
        g = zy_param()
        pt = generic_point(g, plane_corpus)
        Y = qpoly(2, {(0, 1): 1})
        Y2 = qpoly(2, {(0, 1): 2})
        with pytest.raises(ValueError):
            evaluation_embedding_check(pt, [Y, Y2], horizon=8, param=g)


class TestNullstellensatz:
    def test_circle_with_x_minus_1(self):
        param = Parametrization.circle()
        circle = qpoly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
        x_minus_1 = qpoly(2, {(1, 0): 1, (0, 0): -1})
        pts = nullstellensatz_witness([circle], [x_minus_1], param)
        assert pts[0] == (Q(0), Q(1))  # t = 1

    def test_empty_gens_on_line(self):
        pts = nullstellensatz_witness(
            [], [qpoly(1, {(1,): 1}), qpoly(1, {(1,): 1, (0,): -1})],
            Parametrization.line(),
        )
        for pt, prefix_len in zip(pts, (1, 2)):
            assert pt[0] != 0
        assert pts[1][0] not in (0, 1)

    def test_axis_in_plane(self):
        param = zy_param()
        X = qpoly(2, {(1, 0): 1})
        Y = qpoly(2, {(0, 1): 1})
        pts = nullstellensatz_witness([Y], [X], param)
        assert pts[0][1] == 0 and pts[0][0] != 0

    def test_uncoverable_gen_rejected(self):
        with pytest.raises(ValueError):
            nullstellensatz_witness(
                [qpoly(1, {(1,): 1})], [qpoly(1, {(0,): 1})], Parametrization.line()
            )

    def test_witness_vanishing_on_variety_rejected(self):
        param = zy_param()
        Y = qpoly(2, {(0, 1): 1})
        with pytest.raises(ValueError):
            nullstellensatz_witness([Y], [Y], param)


# ---------------------------------------------------------------------------
# pins: the search, the variety test and the enumeration against references
# ---------------------------------------------------------------------------

def hyperbola_param():
    # V = Z(XY - 1): t -> (t, 1/t)
    return Parametrization(1, (RationalFunc.of(qpoly(1, {(1,): 1})),
                               RationalFunc.of(qpoly(1, {(0,): 1}), qpoly(1, {(1,): 1}))))


def rationals_by_height_reference(max_height):
    """The quadratic scan over all p/q with |p|, q <= h, kept as the reference."""
    out = [Q(0)]
    for h in range(1, max_height + 1):
        row = [Q(p, q) for q in range(1, h + 1) for p in range(-h, h + 1)
               if p != 0 and max(abs(p), q) == h and math.gcd(abs(p), q) == 1]
        out += sorted(row, key=lambda x: (abs(x), x < 0, x.denominator))
    return out


def compose_vanishes_reference(param, g):
    """g composed with the parametrization by rational-function arithmetic:
    the test ``vanishes_on_variety`` replaced, kept as the reference."""
    k = param.k
    one = qpoly(k, {(0,) * k: 1})
    num, den = qpoly(k, {}), one
    for nu, c in g.coeffs:
        t_num, t_den = qpoly(k, {(0,) * k: c}), one
        for var, e in enumerate(nu):
            for _ in range(e):
                t_num = t_num.mul(param.coords[var].num)
                t_den = t_den.mul(param.coords[var].den)
        num, den = num.mul(t_den).add(t_num.mul(den)), den.mul(t_den)
    return num.is_zero()


# the varieties of the pins, each with a defining polynomial
PIN_VARIETIES = {
    "line": (Parametrization.line, qpoly(1, {})),
    "zy": (zy_param, qpoly(2, {(0, 1): 1})),
    "hyperbola": (hyperbola_param, qpoly(2, {(1, 1): 1, (0, 0): -1})),
    "circle": (Parametrization.circle, qpoly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})),
}


def genpoint_transcript() -> str:
    """Points and logs at indices 1..20 and Nullstellensatz witnesses, as text."""
    points = {
        "line": generic_point(Parametrization.line(), line_corpus),
        "zy": generic_point(zy_param(), plane_corpus),
        "halo": generic_point(Parametrization.line(), line_corpus, halo_center=(0,)),
        "hyperbola": generic_point(hyperbola_param(), plane_corpus),
        "circle": generic_point(Parametrization.circle(), plane_corpus),
    }
    lines = []
    for name, g in points.items():
        for i in range(1, 21):
            lines.append(f"{name} {i} {[str(c) for c in g.point(i)]}")
            lines += [f"  {e.kind} {e.description} {e.margin_squared}" for e in g.log(i)]
    X, Y = qpoly(2, {(1, 0): 1}), qpoly(2, {(0, 1): 1})
    line_witnesses = [qpoly(1, {(1,): 1, (0,): -c}) for c in range(-3, 4)]
    plane_witnesses = [X, X.add(qpoly(2, {(0, 0): -1})), X.add(Y).add(qpoly(2, {(0, 0): 1}))]
    for name, gens, witnesses in (
        ("line", [], line_witnesses),
        ("zy", [Y], plane_witnesses),
        ("hyperbola", [PIN_VARIETIES["hyperbola"][1]], plane_witnesses),
        ("circle", [PIN_VARIETIES["circle"][1]], plane_witnesses + [Y]),
    ):
        pts = nullstellensatz_witness(gens, witnesses, PIN_VARIETIES[name][0]())
        lines.append(f"witness {name} {[[str(c) for c in pt] for pt in pts]}")
    return "\n".join(lines)


# the transcript as the pre-refactor search printed it
GENPOINT_DIGEST = "46506c82e86d243e728bc4039def57f44a186d06610e95f998dc972b046dacaf"


@st.composite
def polys_on_varieties(draw):
    """A variety of PIN_VARIETIES and a polynomial in its ambient variables,
    often a multiple of the defining polynomial plus a drawn remainder."""
    name = draw(st.sampled_from(sorted(PIN_VARIETIES)))
    make, defining = PIN_VARIETIES[name]
    n = defining.n
    poly = lambda: qpoly(n, draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n),
        st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4)))
    g = defining.mul(poly())
    if draw(st.booleans()):
        g = g.add(poly())
    return make(), g


class TestPins:
    def test_points_logs_and_witnesses_match_the_digest(self):
        got = hashlib.sha256(genpoint_transcript().encode()).hexdigest()
        assert got == GENPOINT_DIGEST

    def test_rationals_by_height_match_the_quadratic_scan(self):
        want = rationals_by_height_reference(30)
        assert list(itertools.islice(rationals_by_height(), len(want))) == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=polys_on_varieties())
    def test_vanishes_on_variety_matches_composition(self, case):
        param, g = case
        assert param.vanishes_on_variety(g) == compose_vanishes_reference(param, g)

    def test_vanishing_cases_are_drawn(self):
        circle, defining = PIN_VARIETIES["circle"]
        assert circle().vanishes_on_variety(defining.mul(qpoly(2, {(3, 1): Q(2, 3)})))
        assert not circle().vanishes_on_variety(defining.add(qpoly(2, {(0, 0): 1})))
        assert Parametrization.line().vanishes_on_variety(qpoly(1, {}))

    def test_arity_mismatch_is_refused(self):
        with pytest.raises(ValueError, match="ambient arity mismatch"):
            zy_param().vanishes_on_variety(qpoly(1, {(1,): 1}))

    def test_embedding_notes(self):
        g = generic_point(Parametrization.line(), line_corpus)
        powers = [qpoly(1, {(k,): 1}) for k in (1, 2, 3)]
        v = evaluation_embedding_check(g, powers, horizon=24)
        assert (v.kind, v.witness, v.note) == ("Holds", 9, "all 3 residues separated")
        x = LazyHyperPoint.constant((1,))
        v = evaluation_embedding_check(x, powers, horizon=16)
        assert (v.kind, v.note) == ("Fails", "pair (0, 1) not separated")
        v = evaluation_embedding_check(x, powers[:1], param=Parametrization.line())
        assert (v.kind, v.witness, v.note) == ("Holds", 1, "fewer than two residues: vacuous")

    @pytest.mark.parametrize("residues,pair", [
        ([(0, 1), (1, 0), (0, 2)], "0 and 2"),
        ([(1, 0), (0, 1), (0, 2), (0, 3)], "1 and 2"),
    ])
    def test_coincidence_is_raised_before_any_separation_verdict(self, residues, pair):
        # at the constant origin no pair is separated, so a verdict would come first
        polys = [qpoly(2, {nu: 1}) for nu in residues]
        with pytest.raises(ValueError, match=f"^residues {pair} coincide on the variety$"):
            evaluation_embedding_check(LazyHyperPoint.constant((0, 0)), polys,
                                       horizon=8, param=zy_param())


class TestGridExhausted:
    def test_far_halo_names_the_halo(self):
        g = generic_point(Parametrization.line(), line_corpus, halo_center=(10**6,))
        with pytest.raises(GridExhausted) as exc:
            g.point(1)
        assert exc.value.index == 1
        assert str(exc.value) == (
            "grid exhausted at index 1; obstructed by ['halo |x - center|^2 <= 1']")

    @pytest.mark.parametrize("halo_center", [None, (0,)])
    def test_constraints_that_cover_the_budget_are_named(self, halo_center, monkeypatch):
        # one constraint vanishing at the first 40 grid values, the whole
        # budget of index 1 at GENERIC_HEIGHT_CAP = 1; the halo |t| <= 1 holds
        # some of them, so the constraint is blamed with or without it
        monkeypatch.setattr(genpoint, "GENERIC_HEIGHT_CAP", 1)
        wall = qpoly(1, {(0,): 1})
        for r in itertools.islice(rationals_by_height(), 40):
            wall = wall.mul(qpoly(1, {(1,): 1, (0,): -r}))
        g = generic_point(Parametrization.line(), lambda: iter([wall]), halo_center)
        with pytest.raises(GridExhausted) as exc:
            g.point(1)
        assert exc.value.index == 1
        assert str(exc.value) == f"grid exhausted at index 1; obstructed by {exc.value.failing}"
        assert exc.value.failing == [genpoint._fmt_poly(wall)]

    def test_witness_search_past_its_budget(self, monkeypatch):
        # the first three grid values 0, 1, -1 are the roots of X(X - 1)(X + 1)
        monkeypatch.setattr(genpoint, "WITNESS_HEIGHT_CAP", 3)
        cubic = qpoly(1, {(3,): 1, (1,): -1})
        with pytest.raises(GridExhausted) as exc:
            nullstellensatz_witness([], [qpoly(1, {(0,): 1}), cubic], Parametrization.line())
        assert exc.value.index == 2
        assert str(exc.value) == "grid exhausted at index 2; obstructed by ['1', '-1x1 + 1x1^3']"
