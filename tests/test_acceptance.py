"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its runtime and its ratio to the
criterion's budget when it succeeds, marking a run over budget; pytest's
assertion machinery reports failures.  Runtimes are asserted loosely, at
three times the budget (wall clock on shared hardware).
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction as Q

from hyperpoly.classify import (
    INFINITESIMAL,
    UNBOUNDED,
    cauchy_all_coefficients,
    classify_poly,
    coefficient_bound_check,
    sampling_oracle,
)
from hyperpoly.completion import (
    FieldPoly,
    ResidueTower,
    finite_field_surjectivity_check,
    lift_tower,
)
from hyperpoly.families import labeled_family, random_bounded_pair
from hyperpoly.filters import (
    ProductRing,
    enumerate_filters,
    is_ultrafilter,
    kochen_ideal_to_filter,
)
from hyperpoly.genpoint import (
    Parametrization,
    evaluation_embedding_check,
    generic_point,
    integer_poly_corpus,
    qpoly,
)
from hyperpoly.hypernat import HyperNatural
from hyperpoly.hypernum import HyperComplex
from hyperpoly.interpoly import (
    StructuredPoly,
    constant,
    multi_indices_of_degree,
    poly_add,
    poly_mul,
    truncated_exp,
)
from hyperpoly.leibniz import (
    classify_scaled,
    delta,
    derivation_check,
    factor_chain,
    in_I2,
    infinitesimal_factor,
    phi,
    taylor_identity_check,
)
from hyperpoly.roots import bisection
from hyperpoly.stdpart import StandardPowerSeries, lift_series, st_poly, zero_set_compare
from hyperpoly.families import make_infinitesimal

D_I = HyperNatural.identity()


def report(name: str, started: float, budget: float, detail: str = ""):
    elapsed = time.monotonic() - started
    extra = f" ({detail})" if detail else ""
    over = ", OVER BUDGET" if elapsed >= budget else ""
    print(f"PASS {name}: {elapsed:.2f}s / {budget:.0f}s budget "
          f"({elapsed / budget:.2f}x{over}){extra}")
    assert elapsed < budget * 3, f"{name} exceeded its runtime budget badly"


def test_criterion_1_classifier_soundness():
    t0 = time.monotonic()
    family = labeled_family(seed=101, count=200)
    mismatches = []
    for k, (label, poly) in enumerate(family):
        got = classify_poly(poly).verdict
        if got != label:
            mismatches.append((k, label, got))
    assert mismatches == [], f"classifier disagreed on {mismatches[:5]}"
    unconfirmed = []
    refuted = []
    for k, (label, poly) in enumerate(family):
        if label == UNBOUNDED:
            confirmed = False
            for radius in (1, 2, 3, 4):
                rep = sampling_oracle(
                    poly, sample_count=4, radius=radius, horizon=24, seed=7
                )
                if rep.bounded.fails():
                    confirmed = True
                    break
            if not confirmed:
                unconfirmed.append(k)
        else:
            # a bounded verdict must never be refuted at any radius <= 4
            for radius in (1, 4):
                rep = sampling_oracle(
                    poly, sample_count=4, radius=radius, horizon=16, seed=7
                )
                if rep.bounded.fails():
                    refuted.append((k, radius))
    assert unconfirmed == [], f"no oracle witness for members {unconfirmed}"
    assert refuted == [], f"bounded verdicts refuted: {refuted[:5]}"
    report("criterion 1 (classifier soundness, 200 polynomials)", t0, 10)


def test_criterion_2_standard_part_ring_homomorphism():
    t0 = time.monotonic()
    rng = random.Random(202)
    for _ in range(100):
        p, q = random_bounded_pair(rng)
        sp, sq = st_poly(p), st_poly(q)
        assert st_poly(poly_add(p, q)).eq_to_order(sp + sq, 12)
        assert st_poly(poly_mul(p, q)).eq_to_order(sp * sq, 12)
    report("criterion 2 (st is a ring homomorphism, 100 pairs)", t0, 5)


def test_criterion_3_truncation_section():
    t0 = time.monotonic()
    series = (
        StandardPowerSeries.exp(),
        StandardPowerSeries.sin_like(),
        StandardPowerSeries.damped_rational(),
    )
    degrees = (D_I, HyperNatural.affine(2, 3))
    for s in series:
        for d in degrees:
            assert st_poly(lift_series(s, d)).eq_to_order(s, 12)
    report("criterion 3 (truncate-then-st is the identity)", t0, 1)


def test_criterion_4_cauchy_recovery():
    t0 = time.monotonic()
    rng = random.Random(404)
    for _ in range(50):
        n = rng.choice((1, 2))
        deg = rng.randint(1, 10)
        coeffs = {}
        for _ in range(rng.randint(2, 6)):
            if n == 1:
                nu = (rng.randint(0, deg),)
            else:
                a = rng.randint(0, deg)
                nu = (a, rng.randint(0, deg - a))
            coeffs[nu] = HyperComplex.from_rational(
                Q(rng.randint(-9, 9), rng.randint(1, 3)), Q(rng.randint(-3, 3))
            )
        p = StructuredPoly(n, HyperNatural.constant(deg), coeffs)
        mat = p.materialize(1)
        if not mat:
            continue
        per_var = max(max(nu) for nu in mat)
        nodes = max(nu_total for nu_total in (deg,)) + 4
        nodes = max(nodes, per_var + 1)
        got = cauchy_all_coefficients(p, 1, at_index=1, nodes=nodes)
        for nu, c in mat.items():
            want = complex(c[0], c[1])
            assert abs(got[nu] - want) <= 1e-8 * max(1.0, abs(want))
        rep = coefficient_bound_check(p, 1, at_index=1)
        assert rep["violations"] == []
    report("criterion 4 (trapezoidal coefficient recovery, 50 polynomials)", t0, 5)


def test_criterion_5_zero_set_convergence():
    t0 = time.monotonic()
    p = poly_add(truncated_exp(D_I), constant(1, -2))
    rep = zero_set_compare(p, 2, [10, 20, 40])

    # stated oracle: bisection on partial sums, independent of the root finder
    def partial_sum_minus_2(x: float, terms: int = 80) -> float:
        acc = 0.0
        for k in range(terms, -1, -1):
            acc = acc * x / max(k, 1) + 1.0 if k > 0 else acc + 1.0
        # straightforward Horner of sum x^k/k! then shift
        total = 0.0
        for k in range(terms, -1, -1):
            total = total * x + 1.0 / math.factorial(k)
        return total - 2.0

    ln2 = bisection(partial_sum_minus_2, 0.0, 1.0)
    for i, tol in ((10, 1e-3), (20, 1e-6), (40, 1e-10)):
        nearest = min(abs(r - ln2) for r in rep.roots_by_index[i])
        assert nearest < tol, f"index {i}: {nearest} >= {tol}"
    report("criterion 5 (zero sets converge to ln 2)", t0, 2)


def test_criterion_6_completion_lifting():
    t0 = time.monotonic()
    rng = random.Random(606)
    for _ in range(50):
        K = rng.randint(1, 8)
        n = rng.choice((1, 2))
        full = {}
        for m in range(K + 1):
            for nu in multi_indices_of_degree(n, m):
                if rng.random() < 0.5:
                    full[nu] = Q(rng.randint(-9, 9), rng.randint(1, 4))
        top = FieldPoly.make("Q", n, full)
        tower = ResidueTower.make("Q", n, [top.truncate(k) for k in range(K + 1)])
        lifted = lift_tower(tower, horizon=K + rng.randint(0, 4))
        assert lifted.check_congruences()
    for K in range(0, 5):
        rep = finite_field_surjectivity_check(2, 1, K)
        assert rep["bijective"] and rep["residues"] == 2 ** (K + 1)
    report("criterion 6 (completion lifting and F2 surjectivity)", t0, 5)


def test_criterion_7_differential_calculus():
    t0 = time.monotonic()
    rng = random.Random(707)

    def bounded_explicit(max_deg=5):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            coeffs[(rng.randint(0, max_deg),)] = HyperComplex.from_rational(
                Q(rng.randint(-5, 5), rng.randint(1, 3))
            )
        return StructuredPoly(1, HyperNatural.constant(max_deg), coeffs)

    for _ in range(100):
        f, g = bounded_explicit(), bounded_explicit()
        assert derivation_check(f, g).holds()
        assert taylor_identity_check(f).holds()
    for _ in range(100):
        f, g = bounded_explicit(), bounded_explicit()
        p = delta(f) * delta(g)   # a product of two elements of I
        assert phi(p).is_zero_to_order(8)
        assert in_I2(p).holds()
    factored = 0
    guard = 0
    while factored < 50 and guard < 500:
        guard += 1
        p = make_infinitesimal(rng)
        if classify_poly(p).verdict != INFINITESIMAL:
            continue
        eps, q = infinitesimal_factor(p)
        assert classify_scaled(eps).verdict == INFINITESIMAL
        assert classify_scaled(q).verdict == INFINITESIMAL
        chain = factor_chain(p, 2)
        assert chain.exponent_identity() and chain.verify_at(range(1, 9))
        factored += 1
    assert factored == 50
    report("criterion 7 (differential calculus, 100 pairs + 50 factorizations)", t0, 15)


def test_criterion_8_generic_points():
    t0 = time.monotonic()
    # affine line with the height-3 corpus
    line = generic_point(Parametrization.line(), lambda: integer_poly_corpus(1, 3))
    for L in range(1, 21):
        for i in (L, L + 2):
            avoid = [e for e in line.log(i) if e.kind == "avoidance"]
            assert len(avoid) >= min(i, L)
            assert all(e.margin_squared > 0 for e in avoid)
    # Z(Y) in the plane
    zy = Parametrization.from_polys([qpoly(1, {(1,): 1}), qpoly(1, {})])
    plane = generic_point(zy, lambda: integer_poly_corpus(2, 2))
    y_poly = qpoly(2, {(0, 1): 1})
    for i in range(1, 21):
        pt = plane.point(i)
        assert y_poly.eval_at(pt) == 0
        avoid = [e for e in plane.log(i) if e.kind == "avoidance"]
        assert len(avoid) == i
    # evaluation separates 50 pairwise-distinct residues
    residues = [qpoly(1, {(k,): 1}) for k in range(1, 51)]
    v = evaluation_embedding_check(line, residues, horizon=64)
    assert v.holds(), str(v)
    # halo variant stays within 1/i of the center
    halo = generic_point(
        Parametrization.line(), lambda: integer_poly_corpus(1, 3), halo_center=(0,)
    )
    for i in range(1, 21):
        (ti,) = halo.point(i)
        assert abs(ti) <= Q(1, i)
    report("criterion 8 (generic points, separation, halo)", t0, 10)


def test_criterion_9_kochen_correspondence():
    t0 = time.monotonic()
    for size in (1, 2, 3, 4):
        filters = enumerate_filters(range(size))
        for p in (2, 3):
            ring = ProductRing.uniform(range(size), p)
            ideals = ring.all_ideals()
            assert len(ideals) == 2 ** size == len(filters)
            seen = {}
            primes_ok = True
            for ideal in ideals:
                f = kochen_ideal_to_filter(ring, list(ideal))
                seen[f.members] = seen.get(f.members, 0) + 1
                if ring.is_prime_ideal(ideal) != is_ultrafilter(f):
                    primes_ok = False
            assert len(seen) == len(ideals)
            assert {m for m in seen} == {f.members for f in filters}
            assert primes_ok
    report("criterion 9 (ideal/filter bijection up to |I| = 4 over F2, F3)", t0, 10)


def test_criterion_10_cli_determinism():
    t0 = time.monotonic()
    from hyperpoly.cli import main

    corpus = [
        ("classify", "sum(k=0..d, X^k/k!)", "--d", "i", "--seed", "5"),
        ("classify", "sum(k=0..d, X^k)", "--d", "i", "--radius", "3", "--seed", "5"),
        ("classify", "eps := 1/i; eps*X", "--seed", "5"),
        ("stdpart", "(1 + 1/i)*X", "--order", "4"),
        ("zeros", "sum(k=0..d, X^k/k!) - 2", "--d", "i", "--indices", "10,20",
         "--radius", "2"),
        ("delta", "X*Y"),
        ("phi", "2*X*dX + dX^2"),
        ("derivation-check", "X", "X*X"),
        ("generic", "--param", "t -> (t, 0)", "--indices", "1..6"),
        ("kochen", "--index-size", "3", "--field", "2", "--enumerate"),
    ]
    for argv in corpus:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(list(argv))
            outs.append((code, buf.getvalue()))
        assert outs[0] == outs[1], f"nondeterministic output for {argv}"
        assert "error" not in json.loads(outs[0][1]), argv
    report("criterion 10 (CLI byte determinism on the documented corpus)", t0, 5)
