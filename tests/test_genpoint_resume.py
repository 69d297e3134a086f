"""The generic-point search resumed from a smaller index's grid position."""

import functools
import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import genpoint
from hyperpoly.genpoint import (
    GridExhausted,
    Parametrization,
    RationalFunc,
    generic_point,
    integer_poly_corpus,
    qpoly,
)


def line_corpus():
    return integer_poly_corpus(1, 3)


def plane_corpus():
    return integer_poly_corpus(2, 2)


# name -> (parametrization, corpus, halo center)
VARIETIES = {
    "line": (Parametrization.line, line_corpus, None),
    "zy": (lambda: Parametrization.from_polys([qpoly(1, {(1,): 1}), qpoly(1, {})]),
           plane_corpus, None),
    "halo": (Parametrization.line, line_corpus, (0,)),
    "hyperbola": (lambda: Parametrization(1, (RationalFunc.of(qpoly(1, {(1,): 1})),
                                              RationalFunc.of(qpoly(1, {(0,): 1}),
                                                              qpoly(1, {(1,): 1})))),
                  plane_corpus, None),
    "circle": (Parametrization.circle, plane_corpus, None),
}


def make_point(name):
    param, corpus, center = VARIETIES[name]
    return generic_point(param(), corpus, halo_center=center)


def point_and_log(g, i):
    return g.point(i), [(e.kind, e.description, e.margin_squared) for e in g.log(i)]


@functools.lru_cache(maxsize=None)
def fresh(name, i):
    """Index i of a generic point that has computed no other index: a search from 0."""
    return point_and_log(make_point(name), i)


class TestResumedSearch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(VARIETIES)),
           indices=st.lists(st.integers(1, 24), min_size=1, max_size=10, unique=True),
           ascending=st.booleans())
    def test_any_order_gives_the_points_and_logs_of_a_fresh_search(self, name, indices,
                                                                   ascending):
        g = make_point(name)
        for i in sorted(indices) if ascending else indices:
            assert point_and_log(g, i) == fresh(name, i)

    def test_the_line_over_1_to_64_tries_79_grid_points(self, monkeypatch):
        # a search from 0 at every index tries 652
        tried = []
        point_at = Parametrization.point_at
        monkeypatch.setattr(Parametrization, "point_at",
                            lambda self, params: tried.append(params) or point_at(self, params))
        g = make_point("line")
        for i in range(1, 65):
            g.point(i)
        assert len(tried) == 79


class TestExhaustionAfterAResume:
    @pytest.mark.parametrize("warm", [(1,), (2,), (1, 2), (2, 1)])
    def test_raises_what_a_search_from_0_raises(self, warm, monkeypatch):
        # at GENERIC_HEIGHT_CAP = 2, index 1 takes t = 6 (position 45), as
        # (X - 4)(X - 5) vanishes at 4 and 5 (positions 21 and 37); index 2
        # takes 9/2 (position 107).  Below index 3's budget of 240 the halo
        # |t - 5| <= 1/3 holds the grid value 5 alone, so a search resumed past
        # it meets no point of the halo, while a search from 0 meets 5 and
        # names the constraints
        monkeypatch.setattr(genpoint, "GENERIC_HEIGHT_CAP", 2)
        wall = qpoly(1, {(2,): 1, (1,): -9, (0,): 20})
        corpus = lambda: itertools.chain([wall], itertools.repeat(qpoly(1, {(0,): 1})))

        def exhaustion(warm):
            g = generic_point(Parametrization.line(), corpus, halo_center=(5,))
            assert [g.point(i) for i in warm] == [{1: (6,), 2: (Q(9, 2),)}[i] for i in warm]
            with pytest.raises(GridExhausted) as exc:
                g.point(3)
            return exc.value.index, exc.value.failing

        assert exhaustion(warm) == exhaustion(()) == (3, [genpoint._fmt_poly(wall), "1", "1"])
