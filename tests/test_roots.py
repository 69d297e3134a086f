"""Durand-Kerner root finding: bit identity with the reference sweep, and
agreement with bisection on real roots."""

import cmath
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import stdpart
from hyperpoly.hypernat import HyperNatural
from hyperpoly.interpoly import constant, poly_add, truncated_exp
from hyperpoly.roots import _fujiwara_bound, bisection, durand_kerner


def reference_durand_kerner(coeffs: list[complex]) -> list[complex]:
    """The sweep as first written (index loops, a Horner closure); the
    golden corpus pins its roots bit for bit."""
    coeffs = [complex(c) for c in coeffs]
    while coeffs and abs(coeffs[-1]) == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) < 2:
        return []
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    deg = len(monic) - 1
    scale = max(_fujiwara_bound(monic), 1e-30)
    b = [monic[k] / scale ** (deg - k) for k in range(deg + 1)]

    def p(w: complex) -> complex:
        acc = 0j
        for c in reversed(b):
            acc = acc * w + c
        return acc

    radius = 1.0 + max(abs(c) for c in b)
    w = [
        radius * cmath.exp(2j * cmath.pi * (j / deg + 0.25 / deg + 1 / 16))
        for j in range(deg)
    ]
    for _ in range(200):
        moved = 0.0
        for j in range(deg):
            denom = 1.0 + 0j
            for k in range(deg):
                if k != j:
                    denom *= w[j] - w[k]
            if denom == 0:
                w[j] += 1e-8 * (1 + 1j)
                continue
            delta = p(w[j]) / denom
            w[j] -= delta
            moved = max(moved, abs(delta))
        if moved < 1e-12:
            break
    roots = [scale * wj for wj in w]
    return sorted(roots, key=lambda z: (cmath.phase(z), abs(z)))


def bits(roots: list[complex]) -> list[tuple[str, str]]:
    return [(r.real.hex(), r.imag.hex()) for r in roots]


def outcome(finder, coeffs) -> object:
    """The bits of the roots ``finder`` returns, or the type of what it raises
    (a tiny leading coefficient overflows the reference's rescaling)."""
    try:
        return bits(finder(coeffs))
    except ArithmeticError as exc:
        return type(exc)


def readme_zeros_inputs(monkeypatch) -> list[list[complex]]:
    """The coefficient lists that the README's ``zeros`` command hands the
    root finder: the degree-60 truncation of st(P), then P_10, P_20, P_40
    of P = sum(k=0..d, X^k/k!) - 2 with d = i."""
    seen = []

    def record(coeffs):
        seen.append(list(coeffs))
        return durand_kerner(coeffs)

    p = poly_add(truncated_exp(HyperNatural.identity()), constant(1, -2))
    monkeypatch.setattr(stdpart, "durand_kerner", record)
    stdpart.zero_set_compare(p, 2, [10, 20, 40])
    monkeypatch.undo()
    return seen


def test_readme_zeros_roots_are_bit_identical(monkeypatch):
    inputs = readme_zeros_inputs(monkeypatch)
    assert [len(c) - 1 for c in inputs] == [60, 10, 20, 40]
    for coeffs in inputs:
        assert bits(durand_kerner(coeffs)) == bits(reference_durand_kerner(coeffs))


def _monic_from_roots(roots) -> list:
    """Exact coefficients, constant term first, of the product of (x - r)."""
    out = [1]
    for r in roots:
        out = [a - r * b for a, b in zip([0] + out, out + [0])]
    return out


FLOATS = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
REAL = st.lists(FLOATS.map(complex), min_size=1, max_size=21)
COMPLEX = st.lists(st.builds(complex, FLOATS, FLOATS), min_size=1, max_size=21)
INTEGER_ROOTS = st.lists(st.integers(-4, 4), min_size=1, max_size=20).map(
    lambda rs: [complex(c) for c in _monic_from_roots(rs)])
CONSTANTS = st.builds(lambda c: [c], st.builds(complex, FLOATS, FLOATS))


@st.composite
def polynomials(draw):
    coeffs = draw(st.one_of(REAL, COMPLEX, INTEGER_ROOTS, CONSTANTS))
    if draw(st.booleans()):
        coeffs = [0j] + coeffs[:20]          # a zero constant term
    return coeffs + [0j] * draw(st.integers(0, 2))   # leading zeros, stripped


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coeffs=polynomials())
def test_drawn_polynomials_are_bit_identical(coeffs):
    want = outcome(reference_durand_kerner, coeffs)
    got = outcome(durand_kerner, coeffs)
    if want is OverflowError:
        # the reference's rescaling power passes the float range; the finder
        # divides by the scale step by step there and answers, one root per degree
        assert isinstance(got, list) and len(got) == max(k for k, c in enumerate(coeffs) if c)
    else:
        assert got == want


def test_tiny_leading_coefficient_keeps_its_roots():
    # scale ** 2 passes the float range; b_0 = 0 and b_1 = 1/2 come from two divisions
    zero, far = durand_kerner([0, 1, 1e-200])
    assert zero == 0 and abs(far.real + 1e200) < 1e186 and far.imag == 0


def test_degenerate_inputs_match_the_reference():
    for coeffs in ([], [0j], [3], [0, 0], [1, 2, 0, 0], [0, 0, 1]):
        assert bits(durand_kerner(coeffs)) == bits(reference_durand_kerner(coeffs))


def _spread(ns: list[int]) -> list[Fraction]:
    """n/60 for the sorted ns, dropping each that lies within 0.1 of the last kept."""
    kept = []
    for n in sorted(ns):
        if not kept or n - kept[-1] >= 6:
            kept.append(n)
    return [Fraction(n, 60) for n in kept]


# distinct rationals in [-2, 2], at least 0.1 apart
SPREAD_ROOTS = st.lists(st.integers(-120, 120), min_size=1, max_size=8).map(_spread)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(roots=SPREAD_ROOTS)
def test_durand_kerner_agrees_with_bisection_on_real_roots(roots):
    found = durand_kerner([complex(c) for c in _monic_from_roots(roots)])
    real = [z.real for z in found if abs(z.imag) < 1e-9]
    points = [float(r) for r in roots]

    def f(x: float) -> float:
        acc = 1.0
        for r in points:
            acc *= x - r
        return acc

    edges = ([points[0] - 0.05] + [(a + b) / 2 for a, b in zip(points, points[1:])]
             + [points[-1] + 0.05])
    for lo, hi in zip(edges, edges[1:]):
        assert (f(lo) > 0) != (f(hi) > 0)
        x = bisection(f, lo, hi)
        assert min(abs(x - z) for z in real) < 1e-9
