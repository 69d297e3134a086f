"""Generic points, nonstandard zero sets, and Nullstellensatz witnesses."""

import os
import subprocess
import sys
from fractions import Fraction as Q

import pytest

import hyperpoly
from hyperpoly.genpoint import (
    GridExhausted,
    LazyHyperPoint,
    Parametrization,
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
