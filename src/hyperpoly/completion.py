"""Adic completion by late representatives.

A coherent tower of residues mod powers of the maximal ideal (X_1, ..., X_n)
lifts to a single internal polynomial: take the representing sequence whose
index-i member is the deepest available level.  Every congruence against the
tower is then exact - "any sufficiently late representative works" becomes,
concretely, the tail of the sequence.

Coefficients live in Q or in a prime field F_p; the finite-field case is the
one where the lift map onto residues is exhaustively checkable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from math import lcm, prod
from typing import Union

from .filters import is_prime
from .interpoly import add_terms, mi_total, multi_indices_of_degree, times_terms
from .record import Record, _set

Q = Fraction

FieldSpec = Union[str, int]   # "Q" or a prime modulus


class TowerError(ValueError):
    pass


def _field_ok(field: FieldSpec) -> None:
    if field == "Q":
        return
    if isinstance(field, int) and is_prime(field):
        return
    raise TowerError(f"coefficient field must be 'Q' or a prime modulus, got {field!r}")


def _normalize(field: FieldSpec, c):
    """``c`` in the field: a rational ``n/d`` is ``n * d^-1 mod p`` in F_p."""
    if field == "Q":
        return Q(c)
    if isinstance(c, int):
        return c % field
    c = Q(c)
    if c.denominator % field == 0:
        raise TowerError(f"coefficient {c} has no value in F_{field}: "
                         f"its denominator is divisible by {field}")
    return c.numerator * pow(c.denominator, -1, field) % field


class FieldPoly(Record, frozen=True):
    """Plain standard polynomial over Q or F_p, dense-by-dict."""

    __slots__ = ("field", "n", "coeffs", "__dict__")   # __dict__ keeps _over_lcm
    def __init__(self, field: FieldSpec, n: int, coeffs: tuple):
        _set(self, "field", field)
        _set(self, "n", n)
        _set(self, "coeffs", coeffs)  # sorted ((nu, c), ...)

    @staticmethod
    def make(field: FieldSpec, n: int, coeffs: dict) -> "FieldPoly":
        _field_ok(field)
        norm = {}
        for nu, c in coeffs.items():
            c = _normalize(field, c)
            if c != 0:
                norm[tuple(nu)] = c
        return FieldPoly(field, n, tuple(sorted(norm.items())))

    def truncate(self, degree: int) -> "FieldPoly":
        """Residue mod m^(degree+1): drop total degrees above ``degree``."""
        return FieldPoly.make(
            self.field, self.n,
            {nu: c for nu, c in self.coeffs if mi_total(nu) <= degree},
        )

    def add(self, other: "FieldPoly") -> "FieldPoly":
        return FieldPoly.make(self.field, self.n, add_terms(dict(self.coeffs), other.coeffs))

    def mul(self, other: "FieldPoly") -> "FieldPoly":
        return FieldPoly.make(self.field, self.n,
                              add_terms({}, times_terms(self.coeffs, other.coeffs)))

    def scale(self, c) -> "FieldPoly":
        return FieldPoly.make(
            self.field, self.n, {nu: v * c for nu, v in self.coeffs}
        )

    @cached_property
    def _over_lcm(self) -> tuple:
        """Integer coefficients over their lcm ``L``; the top exponent ``E_v`` of used ``v``."""
        den = lcm(*(Q(c).denominator for _, c in self.coeffs))
        tops = [(v, max((nu[v] for nu, _ in self.coeffs), default=0)) for v in range(self.n)]
        return den, [t for t in tops if t[1]], [(nu, int(c * den)) for nu, c in self.coeffs]

    def eval_at(self, point) -> "Fraction | int":
        """The value over the one denominator ``L prod q_v^E_v`` at ``x_v = p_v/q_v``."""
        den, tops, terms = self._over_lcm
        xs = [(v, point[v].numerator, point[v].denominator, e) for v, e in tops]
        num = 0
        for nu, a in terms:
            for v, p, q, e in xs:
                a *= p ** nu[v] * q ** (e - nu[v])
            num += a
        value = Q(num, den * prod(q ** e for _, _, q, e in xs))
        return value if self.field == "Q" else _normalize(self.field, value)

    def is_zero(self) -> bool:
        return not self.coeffs

    def congruent(self, other: "FieldPoly", degree: int) -> bool:
        return self.truncate(degree) == other.truncate(degree)


class ResidueTower(Record, frozen=True):
    """Levels x_0, ..., x_K with x_{k+1} = x_k mod m^{k+1}."""

    __slots__ = ("field", "n", "levels")
    def __init__(self, field: FieldSpec, n: int, levels: tuple):
        _set(self, "field", field)
        _set(self, "n", n)
        _set(self, "levels", levels)

    @staticmethod
    def make(field: FieldSpec, n: int, levels) -> "ResidueTower":
        _field_ok(field)
        lv = tuple(levels)
        for k in range(len(lv) - 1):
            if not lv[k + 1].congruent(lv[k], k):
                raise TowerError(f"tower incoherent at level {k}: "
                                 f"x_{k + 1} != x_{k} mod m^{k + 1}")
        return ResidueTower(field, n, lv)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


class LiftedTower(Record, frozen=True):
    """The internal polynomial whose index-i member is x_min(i, K)."""

    __slots__ = ("tower",)
    def __init__(self, tower: ResidueTower):
        _set(self, "tower", tower)

    def at_index(self, i: int) -> FieldPoly:
        k = min(max(i, 0), self.tower.depth)
        return self.tower.levels[k]

    def residue(self, k: int) -> FieldPoly:
        """The class of the lift mod m^(k+1) (stable from index k on)."""
        return self.at_index(self.tower.depth).truncate(k)

    def check_congruences(self) -> bool:
        y = self.at_index(self.tower.depth)
        return all(
            y.congruent(self.tower.levels[k], k) for k in range(self.tower.depth + 1)
        )

def lift_tower(tower: ResidueTower, horizon: int) -> LiftedTower:
    """Lift a coherent tower; the horizon plays the role of the late index.

    Congruences y = x_k mod m^(k+1) are verified exactly for every level.
    """
    if horizon < tower.depth:
        raise TowerError(
            f"horizon {horizon} is below the tower depth {tower.depth}"
        )
    lifted = LiftedTower(tower)
    if not lifted.check_congruences():
        raise TowerError("lift failed its congruence check")
    return lifted


# ---------------------------------------------------------------------------
# finite fields: exhaustive surjectivity
# ---------------------------------------------------------------------------

def enumerate_residues(p: int, n: int, K: int):
    """All residues mod m^(K+1) over F_p, as FieldPoly truncations."""
    monomials = [
        nu for m in range(K + 1) for nu in multi_indices_of_degree(n, m)
    ]
    for values in iproduct(range(p), repeat=len(monomials)):
        yield FieldPoly.make(p, n, dict(zip(monomials, values)))


def finite_field_surjectivity_check(p: int, n: int, K: int) -> dict:
    """Hit every residue class by a tower lift; report the count and bijectivity."""
    if p not in (2, 3, 5):
        raise TowerError("finite-field check supports p in {2, 3, 5}")
    if n > 2 or K > 6:
        raise TowerError("size cap: n <= 2 and K <= 6")
    hits = {}
    total = 0
    for residue in enumerate_residues(p, n, K):
        total += 1
        tower = ResidueTower.make(
            p, n, [residue.truncate(k) for k in range(K + 1)]
        )
        lifted = lift_tower(tower, horizon=max(K, 1))
        got = lifted.residue(K)
        hits[got] = hits.get(got, 0) + 1
        if got != residue:
            raise TowerError(f"lift missed its residue: {residue} -> {got}")
    return {
        "field": p,
        "variables": n,
        "depth": K,
        "residues": total,
        "hit": len(hits),
        "bijective": len(hits) == total and all(v == 1 for v in hits.values()),
    }
