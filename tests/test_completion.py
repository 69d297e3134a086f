"""Tower lifting and the finite-field completion check."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperpoly.completion import (
    FieldPoly,
    ResidueTower,
    TowerError,
    _normalize,
    enumerate_residues,
    finite_field_surjectivity_check,
    lift_tower,
)


def geometric_tower(K):
    # x_k = 1 + X + ... + X^k over Q
    levels = []
    for k in range(K + 1):
        levels.append(FieldPoly.make("Q", 1, {(j,): 1 for j in range(k + 1)}))
    return ResidueTower.make("Q", 1, levels)


class TestLift:
    def test_geometric_partial_sums(self):
        tower = geometric_tower(6)
        lifted = lift_tower(tower, horizon=10)
        assert lifted.check_congruences()
        for k in range(7):
            assert lifted.residue(k) == tower.levels[k]

    def test_zero_tower(self):
        tower = ResidueTower.make("Q", 1, [FieldPoly.make("Q", 1, {})] * 4)
        lifted = lift_tower(tower, horizon=5)
        assert lifted.at_index(3).coeffs == ()

    def test_f2_reciprocal_series(self):
        # 1/(1-X) over F_2: all coefficients are 1
        levels = [
            FieldPoly.make(2, 1, {(j,): 1 for j in range(k + 1)}) for k in range(5)
        ]
        tower = ResidueTower.make(2, 1, levels)
        lifted = lift_tower(tower, horizon=6)
        for k in range(5):
            assert lifted.residue(k) == levels[k]

    def test_incoherent_tower_rejected_with_level(self):
        levels = [
            FieldPoly.make("Q", 1, {(0,): 1}),
            FieldPoly.make("Q", 1, {(0,): 2, (1,): 1}),
        ]
        with pytest.raises(TowerError) as e:
            ResidueTower.make("Q", 1, levels)
        assert "level 0" in str(e.value)

    def test_horizon_below_depth_rejected(self):
        with pytest.raises(TowerError):
            lift_tower(geometric_tower(5), horizon=3)

    def test_random_coherent_towers_lift_exactly(self):
        rng = random.Random(13)
        for _ in range(25):
            K = rng.randint(1, 8)
            n = rng.randint(1, 2)
            # build coherently: start from a full polynomial and truncate
            full = {}
            from hyperpoly.interpoly import multi_indices_of_degree

            for m in range(K + 1):
                for nu in multi_indices_of_degree(n, m):
                    if rng.random() < 0.6:
                        full[nu] = Q(rng.randint(-9, 9), rng.randint(1, 5))
            top = FieldPoly.make("Q", n, full)
            tower = ResidueTower.make("Q", n, [top.truncate(k) for k in range(K + 1)])
            lifted = lift_tower(tower, horizon=K + rng.randint(0, 5))
            assert lifted.check_congruences()

    def test_mutated_level_always_rejected(self):
        rng = random.Random(29)
        for _ in range(10):
            tower = geometric_tower(5)
            k = rng.randint(1, 5)
            bad = list(tower.levels)
            # perturb one coefficient of level k below its own degree
            d = dict(bad[k].coeffs)
            j = rng.randint(0, k - 1)
            d[(j,)] = d.get((j,), 0) + 1
            bad[k] = FieldPoly.make("Q", 1, d)
            with pytest.raises(TowerError):
                ResidueTower.make("Q", 1, bad)

class TestFiniteField:
    def test_f2_n1_k2_hits_all_eight(self):
        rep = finite_field_surjectivity_check(2, 1, 2)
        assert rep["residues"] == 8
        assert rep["hit"] == 8
        assert rep["bijective"]

    def test_f3_n1_k1_hits_all_nine(self):
        rep = finite_field_surjectivity_check(3, 1, 1)
        assert rep["residues"] == 9
        assert rep["bijective"]

    def test_k0_constants(self):
        rep = finite_field_surjectivity_check(5, 1, 0)
        assert rep["residues"] == 5
        assert rep["bijective"]

    def test_composite_field_refused(self):
        with pytest.raises(TowerError):
            FieldPoly.make(4, 1, {(0,): 1})
        with pytest.raises(TowerError):
            ResidueTower.make(9, 1, [])

    def test_size_cap(self):
        with pytest.raises(TowerError):
            finite_field_surjectivity_check(7, 1, 1)
        with pytest.raises(TowerError):
            finite_field_surjectivity_check(2, 3, 1)

    def test_residue_enumeration_count(self):
        assert sum(1 for _ in enumerate_residues(2, 2, 1)) == 2 ** 3  # 1, X, Y


def reference_eval_at(g: FieldPoly, point):
    """Term-by-term ``Fraction`` evaluation, the rule ``eval_at`` must agree with."""
    total = 0
    for nu, c in g.coeffs:
        term = c
        for var, e in enumerate(nu):
            if e:
                term = term * point[var] ** e
        total = total + term
    return _normalize(g.field, total) if g.field != "Q" else Q(total)


@st.composite
def field_polys_at_points(draw):
    """A polynomial over Q or F_p, p <= 7, with residues up to X^80, at a point of
    int and ``Fraction`` coordinates, possibly with extra coordinates."""
    field = draw(st.sampled_from(["Q", 2, 3, 5, 7]))
    n = draw(st.integers(1, 2))
    coeff = (st.fractions(min_value=-20, max_value=20, max_denominator=12) if field == "Q"
             else st.integers(-20, 20))
    g = FieldPoly.make(field, n, draw(st.dictionaries(
        st.tuples(*[st.integers(0, 80)] * n), coeff, max_size=4)))
    coord = st.one_of(st.integers(-9, 9),
                      st.fractions(min_value=-9, max_value=9, max_denominator=14))
    return g, tuple(draw(st.lists(coord, min_size=n, max_size=n + 2)))


@st.composite
def zero_test_cases(draw):
    """``field_polys_at_points``, half of them times ``q X_1 - p`` at ``x_1 = p/q``,
    so that exact zeros over Q are drawn too."""
    g, point = draw(field_polys_at_points())
    if draw(st.booleans()):
        x, n = Q(point[0]), g.n
        g = g.mul(FieldPoly.make(g.field, n, {(1,) + (0,) * (n - 1): x.denominator,
                                              (0,) * n: -x.numerator}))
    return g, point


class TestFieldArithmetic:
    POINTS = ((Q(1, 2), 3), (Q(-2, 3), Q(1, 7)), (4, Q(-1, 3)))

    @pytest.mark.parametrize("field", ["Q", 5])
    def test_sum_and_product_agree_with_values(self, field):
        f = FieldPoly.make(field, 2, {(1, 0): Q(1, 2), (0, 1): 3, (1, 1): -2, (0, 0): 1})
        g = FieldPoly.make(field, 2, {(1, 0): Q(-1, 2), (2, 0): 4, (0, 2): Q(2, 3)})
        total, prod = f.add(g), f.mul(g)
        assert (1, 0) not in dict(total.coeffs)     # 1/2 - 1/2 cancels
        assert not f.add(f.scale(-1)).coeffs
        ring = (lambda v: v) if field == "Q" else (lambda v: v % field)
        for x in self.POINTS:
            assert total.eval_at(x) == ring(f.eval_at(x) + g.eval_at(x))
            assert prod.eval_at(x) == ring(f.eval_at(x) * g.eval_at(x))


class TestEvalAt:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=field_polys_at_points())
    @example(case=(FieldPoly.make("Q", 1, {}), (Q(1, 2),)))
    @example(case=(FieldPoly.make(5, 2, {}), (Q(1, 5), 3)))
    @example(case=(FieldPoly.make("Q", 2, {(80, 0): Q(1, 3), (0, 1): -2}), (0, Q(-7, 9))))
    @example(case=(FieldPoly.make(7, 1, {(80,): 1, (3,): 2}), (Q(3, 2), 5, Q(1, 7))))
    def test_matches_term_by_term_reference(self, case):
        g, point = case
        try:
            want = reference_eval_at(g, point)
        except TowerError as err:
            with pytest.raises(TowerError) as got:
                g.eval_at(point)
            assert str(got.value) == str(err)
            return
        got = g.eval_at(point)
        assert type(got) is type(want)
        assert got == want

    def test_denominator_divisible_by_p_raises(self):
        g = FieldPoly.make(3, 1, {(2,): 1, (0,): 2})
        with pytest.raises(TowerError) as err:
            g.eval_at((Q(1, 3),))
        assert str(err.value) == ("coefficient 19/9 has no value in F_3: "
                                  "its denominator is divisible by 3")
        assert g.eval_at((Q(1, 2),)) == 0


class TestVanishesAt:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=zero_test_cases())
    @example(case=(FieldPoly.make(3, 1, {(2,): 1, (0,): 2}), (Q(1, 3),)))   # raises
    @example(case=(FieldPoly.make(3, 1, {(2,): 1, (0,): 2}), (Q(1, 2),)))   # 9/4 is 0 in F_3
    @example(case=(FieldPoly.make(3, 2, {(1, 1): 1, (0, 0): 2}), (Q(1, 3), 3)))  # 9/3 is 0
    @example(case=(FieldPoly.make(3, 2, {(1, 1): 1}), (Q(1, 3), 3)))        # 3/3 is 1
    def test_is_eval_at_equal_to_zero(self, case):
        g, point = case
        try:
            want = g.eval_at(point) == 0
        except TowerError as err:
            with pytest.raises(TowerError) as got:
                g.vanishes_at(point)
            assert str(got.value) == str(err)
            return
        assert g.vanishes_at(point) is want
