"""Differentials as polynomials in infinitesimal increments.

A differential element is a polynomial in X_1..X_n and dX_1..dX_n, stored by
dX-slices: body = sum over mu of C_mu(X) * dX^mu with internal-polynomial
coefficients.  The map ``delta(f) = f(X+dX) - f(X)`` lands in the ideal I of
elements that take infinitesimal values when X is bounded and dX is
infinitesimal; reduction mod I^2 realizes 1-forms, and the comparison map
phi sends a reduced element to the standard parts of its linear slices.

Membership in I^2 is decided through the explicit kernel criterion: the
dX-free slice and the dX-linear slices must be infinitesimal (complete for
the dX-degree <= 2 elements every reduction here produces, with boundedness
of the higher slices making their quadratic part land in I*I).

The factorization lemma (infinitesimal = infinitesimal * infinitesimal) is
implemented by the explicit recipe eps = max |a_nu|^(1/2): the scalars and the
cofactor are powers of the one rational sequence s_i = max |a_nu(i)|^2 of the
source, so an iterated factorization holds exactly when every factor is built
on the source and the exponents add up to 0; ``Factorization.verify_at``
checks both, the first by comparing rows index by index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .classify import BOUNDED, INFINITESIMAL, Certificate, PolyClass, classify_poly
from .exacteval import Row, fraction_table
from .interpoly import (
    InternalPolynomial,
    StructuredPoly,
    add_terms,
    mi_sub,
    multi_indices_of_degree,
    partial_derivative,
    poly_mul,
    scalar_mul,
    times_terms,
    zero_poly,
)
from .record import Record, _set
from .stdpart import StandardPartError, st_poly
from .verdicts import FAILS, HOLDS, UNDETERMINED, Verdict

Q = Fraction
MultiIndex = tuple


class DnCertificateError(ValueError):
    """The element has no certificate placing it in the bounded diff ring."""


class DiffElement(Record):
    """body = sum_mu slices[mu](X) * dX^mu, slices internal polynomials."""

    __slots__ = ("n", "slices")
    def __init__(self, n: int, slices: Optional[dict[MultiIndex, InternalPolynomial]] = None):
        self.n = n
        clean = {}
        for mu, poly in (slices or {}).items():
            mu = tuple(mu)
            if len(mu) != self.n:
                raise ValueError("slice index arity mismatch")
            if poly.n != self.n:
                raise ValueError("slice polynomial arity mismatch")
            if isinstance(poly, StructuredPoly) and not poly.explicit \
                    and not poly.tails and not poly.tops:
                continue
            clean[mu] = poly
        self.slices = clean

    # -- basics -----------------------------------------------------------------
    def x_part(self) -> InternalPolynomial:
        """The dX-free slice P(X, 0)."""
        return self.slices.get(tuple([0] * self.n), zero_poly(self.n))

    def linear_slice(self, var: int) -> InternalPolynomial:
        e = tuple(1 if t == var else 0 for t in range(self.n))
        return self.slices.get(e, zero_poly(self.n))

    def __add__(self, other: "DiffElement") -> "DiffElement":
        return DiffElement(self.n, add_terms(dict(self.slices), other.slices.items()))

    def __sub__(self, other: "DiffElement") -> "DiffElement":
        return self + other.scale(-1)

    def scale(self, c) -> "DiffElement":
        return DiffElement(
            self.n, {mu: scalar_mul(c, poly) for mu, poly in self.slices.items()}
        )

    def __mul__(self, other: "DiffElement") -> "DiffElement":
        return DiffElement(self.n, add_terms({}, times_terms(self.slices.items(),
                                                             other.slices.items())))

    def mul_poly(self, p: InternalPolynomial) -> "DiffElement":
        return DiffElement(
            self.n, {mu: poly_mul(p, s) for mu, s in self.slices.items()}
        )

    def dn_certificate(self) -> Optional[str]:
        """None when every slice classifies bounded; else the failure reason."""
        for mu, poly in sorted(self.slices.items()):
            cls = classify_poly(poly)
            if not cls.bounded:
                return f"slice at dX^{mu} classifies {cls.verdict}"
        return None


# ---------------------------------------------------------------------------
# delta and the ideal I
# ---------------------------------------------------------------------------

def delta(f: InternalPolynomial) -> DiffElement:
    """f(X + dX) - f(X), expanded exactly by the Taylor identity.

    For polynomials the expansion sum_mu (d^mu f / mu!) dX^mu is finite at
    every index; derivative slices keep the structured form, so membership
    tests on the result stay decidable.  Each ``d^mu f`` is ``d^(mu - e_v) f``,
    met one degree earlier, derived once more in mu's last nonzero variable v:
    the step order of ``partial_derivative(f, mu)``.
    """
    if f.degree.infinite:
        raise ValueError(
            "delta of a hyperfinite-degree polynomial has hyperfinitely many slices; "
            "apply it to finite-degree (explicit) polynomials"
        )
    # every slice of total dX-degree above the degree vanishes
    top = max([max(0, f.degree.intercept)] + [v for _, v in f.degree.patches])
    derived = {(0,) * f.n: f}
    slices = {}
    for m in range(1, top + 1):
        for mu in multi_indices_of_degree(f.n, m):
            v = max(t for t in range(f.n) if mu[t])
            e_v = tuple(int(t == v) for t in range(f.n))
            d = derived[mu] = partial_derivative(derived[mi_sub(mu, e_v)], e_v)
            slices[mu] = scalar_mul(Q(1, math.prod(map(math.factorial, mu))), d)
    return DiffElement(f.n, slices)


def in_I(p: DiffElement) -> Verdict:
    """Membership in the infinitesimal-value ideal: P_0 must be infinitesimal."""
    reason = p.dn_certificate()
    if reason is not None:
        raise DnCertificateError(reason)
    cls = classify_poly(p.x_part())
    if cls.verdict == INFINITESIMAL:
        return Verdict(HOLDS, 1, "dX-free slice classifies infinitesimal")
    if cls.verdict == BOUNDED and cls.infinitesimal == "no":
        return Verdict(FAILS, 1, "dX-free slice is bounded and not infinitesimal")
    return Verdict(UNDETERMINED, 1, f"dX-free slice classifies {cls.verdict}")


def in_I2(p: DiffElement) -> Verdict:
    """Kernel criterion for I^2: dX-free and dX-linear slices infinitesimal.

    Complete for elements of dX-degree <= 2 whose higher slices are bounded
    (those contribute products of two increments, already in I*I).
    """
    reason = p.dn_certificate()
    if reason is not None:
        raise DnCertificateError(reason)
    parts = [("dX-free", p.x_part())] + [
        (f"dX_{i + 1}-linear", p.linear_slice(i)) for i in range(p.n)
    ]
    for name, poly in parts:
        cls = classify_poly(poly)
        if cls.verdict == INFINITESIMAL:
            continue
        if cls.verdict == BOUNDED and cls.infinitesimal == "no":
            return Verdict(FAILS, 1, f"{name} slice is not infinitesimal")
        return Verdict(UNDETERMINED, 1, f"{name} slice classifies {cls.verdict}")
    return Verdict(HOLDS, 1, "free and linear slices are infinitesimal")


# ---------------------------------------------------------------------------
# phi and reduction mod I^2
# ---------------------------------------------------------------------------

class OneForm(Record, frozen=True):
    __slots__ = ("n", "components")
    def __init__(self, n: int, components: tuple):
        _set(self, "n", n)
        _set(self, "components", components)  # StandardPowerSeries per variable

    def is_zero_to_order(self, order: int) -> bool:
        return all(c.is_constant_to_order(order) and c.coeff(tuple([0] * self.n)) == (0, 0)
                   for c in self.components)

    def to_json(self, order: int = 8):
        return {
            "n": self.n,
            "components": [c.to_json(order) for c in self.components],
        }


def phi(p: DiffElement) -> OneForm:
    """Standard parts of the linear slices; kills I^2 by construction."""
    verdict = in_I(p)
    if not verdict.holds():
        raise StandardPartError(f"phi needs an element of I ({verdict})")
    comps = []
    for i in range(p.n):
        s = p.linear_slice(i)
        cls = classify_poly(s)
        if not cls.bounded:
            raise StandardPartError(
                f"linear slice {i} is not bounded ({cls.verdict})"
            )
        comps.append(st_poly(s, cls))
    return OneForm(p.n, tuple(comps))


def derivation_check(f: InternalPolynomial, g: InternalPolynomial) -> Verdict:
    """delta(fg) - f delta(g) - g delta(f) lands in I^2."""
    lhs = delta(poly_mul(f, g))
    rhs = delta(g).mul_poly(f) + delta(f).mul_poly(g)
    return in_I2(lhs - rhs)


def taylor_identity_check(f: InternalPolynomial) -> Verdict:
    """delta(f) - sum_i (d_i f) dX_i is in I^2 for bounded f."""
    d = delta(f)
    for i in range(f.n):
        e = tuple(1 if t == i else 0 for t in range(f.n))
        d = d - DiffElement(f.n, {e: partial_derivative(f, e)})
    return in_I2(d)


# ---------------------------------------------------------------------------
# the factorization lemma
# ---------------------------------------------------------------------------

class FactorizationError(ArithmeticError):
    pass


class EpsFactor(Record, frozen=True):
    """The scalar s^exponent, where s_i = max |a_nu(i)|^2 of the source."""

    __slots__ = ("source", "exponent")
    def __init__(self, source: InternalPolynomial, exponent: Fraction):
        _set(self, "source", source)
        _set(self, "exponent", exponent)


class ScaledPoly(InternalPolynomial):
    """source * s^exponent: exact by exponent arithmetic, never materialized.

    The coefficients are irrational scalings of the source's, so this node
    does not pretend to materialize; equality claims about products with the
    matching EpsFactor are checked by adding exponents and comparing sources.
    """

    def __init__(self, source: InternalPolynomial, exponent: Fraction):
        self.n = source.n
        self.degree = source.degree
        self.source = source
        self.exponent = Fraction(exponent)

    def row(self, i: int):
        raise TypeError("scaled cofactors carry irrational coefficients; "
                        "use exponent arithmetic on the factorization instead")

    materialize = row

    def coeff(self, nu):
        raise TypeError("scaled cofactors have no rational coefficient stream")


class Factorization(Record, frozen=True):
    """source = (prod of eps factors) * cofactor, exact by construction."""

    __slots__ = ("source", "eps", "cofactor")
    def __init__(self, source: InternalPolynomial, eps: tuple, cofactor: ScaledPoly):
        _set(self, "source", source)
        _set(self, "eps", eps)  # EpsFactor, ...
        _set(self, "cofactor", cofactor)

    def exponent_identity(self) -> bool:
        total = sum((e.exponent for e in self.eps), Q(0))
        return total + self.cofactor.exponent == 0

    def verify_at(self, indices) -> bool:
        """Exact check source_i = prod eps_i * cofactor_i at the given indices.

        Each factor is a power of s read off its own source, so the identity
        holds when the exponents add up to 0 and, at every index, the source
        of each eps factor and of the cofactor has the source's coefficients.
        False on any difference.
        """
        if not self.exponent_identity():
            return False
        sources = [e.source for e in self.eps] + [self.cofactor.source]
        return all(_same_values(self.source.row(i), s.row(i)) for i in indices for s in sources)


def _same_values(a: Row, b: Row) -> bool:
    """Do two rows hold the same coefficients, over whatever denominators?"""
    return a is b or fraction_table(a) == fraction_table(b)


def infinitesimal_factor(p: InternalPolynomial) -> tuple[EpsFactor, ScaledPoly]:
    """Split an infinitesimal polynomial as eps * Q, both infinitesimal.

    eps_i = (max_nu |a_nu(i)|^2)^(1/4) = max |a_nu(i)|^(1/2); the cofactor
    divides every coefficient by eps.  Both classifications derive from the
    source certificate: eps^4 = s -> 0, and |a_nu/eps| <= |a_nu|^(1/2)
    pointwise, so the cofactor inherits the root-test decay.
    """
    cls = classify_poly(p)
    if cls.verdict != INFINITESIMAL:
        raise FactorizationError(
            f"factorization needs a symbolically certified infinitesimal polynomial "
            f"(got {cls.verdict})"
        )
    return EpsFactor(p, Q(1, 4)), ScaledPoly(p, Q(-1, 4))


def factor_chain(p: InternalPolynomial, steps: int) -> Factorization:
    """Iterate the lemma: p = eps_1 ... eps_steps * Q with every factor
    infinitesimal; all factors are powers of one rational sequence."""
    if steps < 1:
        raise ValueError("need at least one factorization step")
    eps_list = []
    exponent = Q(0)
    # each round halves the remaining mass: eps_j = s^(1/4) * s^(previous/2)...
    # concretely: cofactor exponent after j rounds is -(1/2)(1 - 2^-j)
    for j in range(1, steps + 1):
        e_j = Q(1, 4) * Q(1, 2) ** (j - 1)
        eps_list.append(EpsFactor(p, e_j))
        exponent -= e_j
    cofactor = ScaledPoly(p, exponent)
    first = infinitesimal_factor(p)  # validates the precondition
    assert first[0].exponent == eps_list[0].exponent
    return Factorization(p, tuple(eps_list), cofactor)


def classify_scaled(obj) -> PolyClass:
    """Derived classification for factorization pieces."""
    if isinstance(obj, (EpsFactor, ScaledPoly)):
        src = classify_poly(obj.source)
        if src.verdict == INFINITESIMAL:
            return PolyClass(
                INFINITESIMAL,
                Certificate("propagated", ("factorization lemma on a certified source",)),
                "yes",
            )
        return PolyClass("undetermined", Certificate("propagated", ("source not infinitesimal",)))
    return classify_poly(obj)
