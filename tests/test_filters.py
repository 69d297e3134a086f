"""Filter models, eventual-truth verdicts, and the ideal/filter dictionary."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.filters import (
    MAX_RING_ELEMENTS,
    FiniteFilterModel,
    ProductRing,
    SizeError,
    enumerate_filters,
    is_prime,
    is_ultrafilter,
    kochen_filter_to_ideal,
    kochen_ideal_to_filter,
)
from hyperpoly.verdicts import (
    FAILS,
    HOLDS,
    UNDETERMINED,
    PredicateEvaluationError,
    Verdict,
    eventually,
)


class TestEventually:
    def test_reciprocal_threshold(self):
        v = eventually(lambda i: 1 / i < 0.1, 64)
        assert v.kind == HOLDS and v.witness == 11

    def test_alternating_is_undetermined(self):
        v = eventually(lambda i: i % 2 == 0, 64)
        assert v.kind == UNDETERMINED and v.witness == 64

    def test_factorial_beats_powers(self):
        v = eventually(lambda i: math.factorial(i) > 2**i, 64)
        assert v.kind == HOLDS and v.witness == 4

    def test_fails_side(self):
        v = eventually(lambda i: i < 3, 64)
        assert v.kind == FAILS and v.witness == 3

    def test_negation_swaps_with_same_threshold(self):
        v = eventually(lambda i: math.factorial(i) > 2**i, 64)
        w = eventually(lambda i: not (math.factorial(i) > 2**i), 64)
        assert (v.kind, w.kind) == (HOLDS, FAILS)
        assert w.witness == v.witness

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.booleans(), min_size=1, max_size=40),
        # a prefix, then a constant run, so that decided verdicts are drawn too
        st.builds(lambda head, value, run: head + [value] * run,
                  st.lists(st.booleans(), max_size=20), st.booleans(), st.integers(1, 40)),
    ))
    def test_threshold_contract_on_drawn_windows(self, window):
        horizon = len(window)
        v = eventually(lambda i: window[i - 1], horizon)
        if v.kind == UNDETERMINED:
            assert v.witness == horizon
            # no constant run to the horizon starts in the first half
            t = horizon
            while t > 1 and window[t - 2] == window[-1]:
                t -= 1
            assert t > horizon / 2
        else:
            t, value = v.witness, v.kind == HOLDS
            assert all(w == value for w in window[t - 1:])
            assert t == 1 or window[t - 2] != value
            assert t <= horizon / 2

    def test_predicate_error_carries_index(self):
        with pytest.raises(PredicateEvaluationError) as e:
            eventually(lambda i: 1 / (i - 5) > 0, 64)
        assert e.value.index == 5

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=6))
    def test_monotone_in_horizon(self, t0, k):
        # an eventually-true predicate keeps threshold under horizon growth
        pred = lambda i: i >= t0
        v1 = eventually(pred, 4 * t0)
        v2 = eventually(pred, 4 * t0 * k)
        assert v1.kind == HOLDS and v2.kind == HOLDS
        assert v2.witness <= v1.witness


class TestFilterModel:
    def test_principal_and_ultra(self):
        f = FiniteFilterModel.principal({1, 2}, {1})
        assert is_ultrafilter(f)
        assert f.proper

    def test_trivial_filter_not_ultra(self):
        f = FiniteFilterModel.principal({1, 2}, {1, 2})
        assert not is_ultrafilter(f)

    def test_generated_by_pair_undecided(self):
        f = FiniteFilterModel.principal({1, 2, 3}, {1, 2})
        assert not is_ultrafilter(f)  # {1} vs {2,3} both missing
        assert frozenset({1}) not in f.members
        assert frozenset({2, 3}) not in f.members

    def test_filter_axioms_enforced(self):
        with pytest.raises(ValueError):
            FiniteFilterModel(frozenset({1, 2}), frozenset({frozenset({1})}))

    def test_size_cap(self):
        with pytest.raises(SizeError):
            FiniteFilterModel.principal(range(13), {1})

    def test_json_serialization_shapes(self):
        f = FiniteFilterModel.principal({2, 1}, {1})
        js = f.to_json()
        assert js["indexSet"] == [1, 2]
        assert js["members"] == [[1], [1, 2]]
        v = Verdict("Holds", 4, "why")
        assert v.to_json() == {"kind": "Holds", "witness": 4, "note": "why"}

    def test_every_finite_filter_is_principal_exhaustive(self):
        # oracle: a family is a filter iff it is the up-set of its intersection
        items = [frozenset(
            {j for j in range(3) if mask >> j & 1}) for mask in range(8)]
        full = frozenset(range(3))
        filters = []
        for fam_mask in range(1 << 8):
            fam = frozenset(items[k] for k in range(8) if fam_mask >> k & 1)
            if full not in fam:
                continue
            base = full
            for a in fam:
                base &= a
            if fam == frozenset(c for c in items if base <= c):
                filters.append(fam)
        assert len(filters) == 8
        assert {f.members for f in enumerate_filters(range(3))} == set(filters)


class TestKochen:
    def test_ring_size_cap(self):
        assert len(list(ProductRing.uniform(range(7), 2).elements())) == MAX_RING_ELEMENTS
        ProductRing((1, 2), (11, 11))
        for ring in (lambda: ProductRing.uniform(range(8), 2),
                     lambda: ProductRing.uniform(range(5), 3),
                     lambda: ProductRing((1, 2), (11, 13))):
            with pytest.raises(SizeError):
                ring()

    def test_unit_ideal_gives_improper_filter(self):
        ring = ProductRing.uniform({1, 2}, 2)
        f = kochen_ideal_to_filter(ring, [(1, 1)])
        assert not f.proper
        assert len(f.members) == 4  # the full power set

    def test_single_generator(self):
        ring = ProductRing.uniform({1, 2}, 2)
        f = kochen_ideal_to_filter(ring, [(0, 1)])
        assert f.members == frozenset({frozenset({1}), frozenset({1, 2})})

    def test_maximal_ideal_gives_principal_ultrafilter(self):
        ring = ProductRing.uniform({1, 2, 3}, 2)
        gens = [g for g in ring.elements() if g[1] == 0]
        f = kochen_ideal_to_filter(ring, gens)
        assert is_ultrafilter(f)
        assert f.base == frozenset({2})

    def test_filter_to_ideal_trivial(self):
        ring = ProductRing.uniform({1, 2}, 2)
        f = FiniteFilterModel.principal({1, 2}, {1, 2})
        member = kochen_filter_to_ideal(ring, f)
        ideal = [g for g in ring.elements() if member(g)]
        assert ideal == [(0, 0)]

    def test_filter_to_ideal_ultra(self):
        ring = ProductRing.uniform({1, 2}, 2)
        f = FiniteFilterModel.principal({1, 2}, {1})
        member = kochen_filter_to_ideal(ring, f)
        assert sorted(g for g in ring.elements() if member(g)) == [(0, 0), (0, 1)]

    def test_improper_filter_gives_whole_ring(self):
        ring = ProductRing.uniform({1, 2}, 2)
        f = FiniteFilterModel.principal({1, 2}, set())
        member = kochen_filter_to_ideal(ring, f)
        assert all(member(g) for g in ring.elements())

    def test_roundtrip_on_filters(self):
        ring = ProductRing.uniform({1, 2, 3}, 3)
        for f in enumerate_filters({1, 2, 3}):
            member = kochen_filter_to_ideal(ring, f)
            gens = [g for g in ring.elements() if member(g)]
            assert kochen_ideal_to_filter(ring, gens).members == f.members

    def test_support_shortcut_matches_closure_enumeration(self):
        ring = ProductRing.uniform({1, 2}, 3)
        gens = [(0, 1), (0, 2)]
        # the ideal two generators generate is the sum of their principal ideals
        ideal = {tuple((x + y) % 3 for x, y in zip(a, b))
                 for a in ring.principal_ideal(gens[0]) for b in ring.principal_ideal(gens[1])}
        zsets = {ring.zero_set(g) for g in ideal}
        f = kochen_ideal_to_filter(ring, gens)
        # filter members are exactly the zero sets of the generated ideal
        assert f.members == frozenset(zsets)

    def test_composite_modulus_refused(self):
        with pytest.raises(ValueError):
            ProductRing.uniform({1, 2}, 4)
        with pytest.raises(ValueError):
            ProductRing((1, 2), (3, 9))


class TestIsPrime:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))
        assert all(is_prime(n) == trial(n) for n in range(-3, 5000))

    @pytest.mark.parametrize("n,want", [
        (2**61 - 1, True), (1_000_000_007, True),
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2..37
        (3_215_031_751, False), (3_825_123_056_546_413_051, False),
        (2**61 + 1, False),
    ])
    def test_large(self, n, want):
        assert is_prime(n) is want
