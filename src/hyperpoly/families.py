"""Seeded generators of labeled internal polynomials.

The classifier acceptance run needs a mixed population whose true class is
known by construction: bounded families (entire-type coefficient bands and
convergent explicit coefficients), infinitesimal ones (the same shrunk by a
vanishing sequence), and unbounded ones (an exactly infinite coefficient, a
geometric band, or a unit top monomial).  Every instance is symbolic-tier, so
the classifier must commit, and every unbounded instance is constructed to be
confirmable by the evaluation oracle at radius <= 4.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .hypernat import HyperNatural
from .hypernum import HyperComplex
from .indexexpr import IndexExpr
from .interpoly import StructuredPoly, TailTerm, TopTerm

Q = Fraction
I = IndexExpr.index


def _rational(rng: random.Random) -> Fraction:
    return Q(rng.randint(-6, 6), rng.randint(1, 4))


def _nonzero_rational(rng: random.Random) -> Fraction:
    while True:
        q = _rational(rng)
        if q != 0:
            return q


def _bounded_coeff(rng: random.Random) -> IndexExpr:
    kind = rng.randrange(4)
    if kind == 0:
        return IndexExpr.const(_nonzero_rational(rng))
    if kind == 1:
        return IndexExpr.const(_nonzero_rational(rng)) + 1 / I()
    if kind == 2:
        a, b = rng.randint(1, 5), rng.randint(0, 4)
        return (a * I() + b) / (I() + rng.randint(1, 3))
    return IndexExpr.const(_nonzero_rational(rng)) + IndexExpr.geometric(Q(1, 2))


def _infinitesimal_coeff(rng: random.Random) -> IndexExpr:
    kind = rng.randrange(4)
    q = _nonzero_rational(rng)
    if kind == 0:
        return q / I()
    if kind == 1:
        return q / (I() * I())
    if kind == 2:
        return q / IndexExpr.factorial()
    return q * IndexExpr.geometric(Q(1, 3))


def _infinite_coeff(rng: random.Random) -> IndexExpr:
    """Growth the oracle can certify symbolically."""
    kind = rng.randrange(4)
    q = abs(_nonzero_rational(rng))
    if kind == 0:
        return q * I()
    if kind == 1:
        return q * I() * I()
    if kind == 2:
        return q * IndexExpr.factorial()
    return q * IndexExpr.geometric(3)


def _degree(rng: random.Random) -> HyperNatural:
    return HyperNatural.affine(rng.choice((1, 1, 2)), rng.randint(0, 4))


def _explicit(rng: random.Random, n: int, coeff_fn, max_deg: int = 4) -> dict:
    out = {}
    for _ in range(rng.randint(1, 3)):
        if n == 1:
            nu = (rng.randint(0, max_deg),)
        else:
            nu = (rng.randint(0, max_deg // 2), rng.randint(0, max_deg // 2))
        out[nu] = HyperComplex.from_expr(coeff_fn(rng))
    return out


def make_bounded(rng: random.Random) -> StructuredPoly:
    n = rng.choice((1, 1, 2))
    explicit = _explicit(rng, n, _bounded_coeff)
    tails = ()
    if n == 1 and rng.random() < 0.7:
        phi = rng.choice(
            (
                1 / IndexExpr.factorial(),
                1 / (IndexExpr.factorial() * (I() + 1)),
                (1 / IndexExpr.factorial()) ** 2,
            )
        )
        psi = rng.choice((IndexExpr.const(1), (2 * I() + 1) / (I() + 2), 1 / I()))
        tails = (TailTerm((phi,), IndexExpr.const(1), psi, IndexExpr.const(0)),)
    return StructuredPoly(n, _degree(rng), explicit, tails)


def make_infinitesimal(rng: random.Random) -> StructuredPoly:
    n = rng.choice((1, 1, 2))
    explicit = _explicit(rng, n, _infinitesimal_coeff)
    tails = ()
    if n == 1 and rng.random() < 0.6:
        choice = rng.randrange(3)
        if choice == 0:
            # a(m, i) = (1/i)^(m+1)
            tails = (TailTerm((IndexExpr.const(1),), 1 / I(), 1 / I(),
                              IndexExpr.const(0)),)
        elif choice == 1:
            tails = (TailTerm((1 / IndexExpr.factorial(),), IndexExpr.const(1),
                              1 / I(), IndexExpr.const(0)),)
        else:
            tails = (TailTerm((1 / IndexExpr.factorial(),), 1 / I(),
                              _infinitesimal_coeff(rng), IndexExpr.const(0)),)
    return StructuredPoly(n, _degree(rng), explicit, tails)


def make_unbounded(rng: random.Random) -> StructuredPoly:
    kind = rng.randrange(3)
    if kind == 0:
        # an exactly infinite explicit coefficient
        n = rng.choice((1, 2))
        explicit = _explicit(rng, n, _bounded_coeff)
        if n == 1:
            nu = (rng.randint(0, 3),)
        else:
            nu = (rng.randint(0, 2), rng.randint(0, 2))
        explicit[nu] = HyperComplex.from_expr(_infinite_coeff(rng))
        return StructuredPoly(n, _degree(rng), explicit)
    if kind == 1:
        # geometric-type band: root test has a positive limit
        base, slope = rng.choice(((Q(1), 1), (Q(3, 2), 1), (Q(2), 1), (Q(1, 2), 2)))
        phi = IndexExpr.const(1) if base == 1 else IndexExpr.geometric(base)
        psi = rng.choice((IndexExpr.const(1), (2 * I() + 1) / (I() + 2)))
        d = HyperNatural.affine(slope, rng.randint(0, 3))
        return StructuredPoly(1, d, tails=(TailTerm((phi,), IndexExpr.const(1),
                                                    psi, IndexExpr.const(0)),))
    # unit-size moving top monomial
    coeff = HyperComplex.from_expr(rng.choice(
        (IndexExpr.const(1), (2 * I() + 1) / (I() + 2))
    ))
    shift = rng.randint(0, 3)   # the degree, then the top one or no step below it
    top = HyperNatural.affine(1, shift - rng.randint(0, 1))
    return StructuredPoly(1, HyperNatural.affine(1, shift), tops=(TopTerm(top, coeff),))


def labeled_family(seed: int, count: int) -> list[tuple[str, StructuredPoly]]:
    """``count`` labeled symbolic polynomials, deterministic in the seed."""
    rng = random.Random(seed)
    out = []
    makers = (
        ("bounded", make_bounded),
        ("infinitesimal", make_infinitesimal),
        ("unbounded", make_unbounded),
    )
    for k in range(count):
        label, fn = makers[k % len(makers)]
        out.append((label, fn(rng)))
    return out


def random_bounded_pair(rng: random.Random):
    """Two bounded polynomials sharing an arity (for homomorphism checks).

    Univariate pairs dominate (bands only live there); bivariate pairs keep
    the multivariate convolution path honest.
    """
    n = rng.choice((1,) * 9 + (2,))
    a = make_bounded(rng)
    while a.n != n:
        a = make_bounded(rng)
    b = make_bounded(rng)
    while b.n != n:
        b = make_bounded(rng)
    return a, b
