"""Generic points by explicit constraint schedules.

A generic point of a parametrized variety is built index by index: the point
at index i satisfies the defining equations exactly and avoids the zero sets
of the first i polynomials from a deterministic avoidance corpus, with the
margins on file.  This realizes, constructively, what saturation provides for
free: each individual constraint holds at all but finitely many indices.

Everything here is exact rational arithmetic - an equality means equality of
fractions, an avoidance records a positive rational squared margin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .completion import FieldPoly
from .config import HORIZON
from .interpoly import multi_indices_of_degree
from .verdicts import HOLDS, Verdict, eventually

Q = Fraction

# grid points tried: 40 * GENERIC_HEIGHT_CAP * i by generic_point at index i,
# WITNESS_HEIGHT_CAP by nullstellensatz_witness per batch
GENERIC_HEIGHT_CAP = 64
WITNESS_HEIGHT_CAP = 4096


class GridExhausted(RuntimeError):
    """No grid point satisfied the constraint set (corpus degeneracy)."""

    def __init__(self, index, failing):
        super().__init__(
            f"grid exhausted at index {index}; obstructed by {failing}"
        )
        self.index = index
        self.failing = failing


def qpoly(n: int, coeffs: dict) -> FieldPoly:
    return FieldPoly.make("Q", n, coeffs)


# ---------------------------------------------------------------------------
# rational functions and parametrizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFunc:
    num: FieldPoly
    den: FieldPoly

    @staticmethod
    def of(num: FieldPoly, den: Optional[FieldPoly] = None) -> "RationalFunc":
        if den is None:
            den = FieldPoly.make("Q", num.n, {tuple([0] * num.n): 1})
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        return RationalFunc(num, den)

    def eval_at(self, point) -> Fraction:
        d = self.den.eval_at(point)
        if d == 0:
            raise ZeroDivisionError("parametrization pole")
        return Q(self.num.eval_at(point)) / d

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def mul(self, other: "RationalFunc") -> "RationalFunc":
        return RationalFunc(self.num.mul(other.num), self.den.mul(other.den))

    def add(self, other: "RationalFunc") -> "RationalFunc":
        return RationalFunc(
            self.num.mul(other.den).add(other.num.mul(self.den)),
            self.den.mul(other.den),
        )

    def scale(self, c) -> "RationalFunc":
        return RationalFunc(self.num.scale(c), self.den)


@dataclass(frozen=True)
class Parametrization:
    """A rational map from k parameters onto (a dense subset of) the variety."""

    k: int
    coords: tuple            # RationalFunc per ambient coordinate

    @property
    def n(self) -> int:
        return len(self.coords)

    @staticmethod
    def line() -> "Parametrization":
        """t -> t, the affine line."""
        t = qpoly(1, {(1,): 1})
        return Parametrization(1, (RationalFunc.of(t),))

    @staticmethod
    def from_polys(polys: list[FieldPoly]) -> "Parametrization":
        return Parametrization(polys[0].n, tuple(RationalFunc.of(p) for p in polys))

    @staticmethod
    def circle() -> "Parametrization":
        """t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)): the rational unit circle."""
        one_minus = qpoly(1, {(0,): 1, (2,): -1})
        one_plus = qpoly(1, {(0,): 1, (2,): 1})
        two_t = qpoly(1, {(1,): 2})
        return Parametrization(
            1,
            (RationalFunc.of(one_minus, one_plus), RationalFunc.of(two_t, one_plus)),
        )

    def point_at(self, params) -> tuple:
        return tuple(c.eval_at(params) for c in self.coords)

    def compose(self, g: FieldPoly) -> RationalFunc:
        """g restricted to the variety, as a rational function of the parameters."""
        if g.n != self.n:
            raise ValueError("ambient arity mismatch")
        zero = RationalFunc.of(qpoly(self.k, {}))
        total = zero
        for nu, c in g.coeffs:
            term = RationalFunc.of(qpoly(self.k, {tuple([0] * self.k): c}))
            for var, e in enumerate(nu):
                for _ in range(e):
                    term = term.mul(self.coords[var])
            total = total.add(term)
        return total

    def vanishes_on_variety(self, g: FieldPoly) -> bool:
        return self.compose(g).is_zero()


# ---------------------------------------------------------------------------
# deterministic enumerations
# ---------------------------------------------------------------------------

def rationals_by_height() -> Iterator[Fraction]:
    """0, 1, -1, 2, -2, 1/2, -1/2, 3, ... : all rationals, height-ordered."""
    yield Q(0)
    h = 1
    while True:
        out = []
        for q in range(1, h + 1):
            for p in range(-h, h + 1):
                if p != 0 and max(abs(p), q) == h and _coprime(abs(p), q):
                    out.append(Q(p, q))
        for v in sorted(out, key=lambda x: (abs(x), x < 0, x.denominator)):
            yield v
        h += 1


def _coprime(a: int, b: int) -> bool:
    import math

    return math.gcd(a, b) == 1


def param_grid(k: int) -> Iterator[tuple]:
    """Height-ordered tuples of rationals (diagonal enumeration for k > 1)."""
    if k == 1:
        for t in rationals_by_height():
            yield (t,)
        return
    singles: list[Fraction] = []
    gen = rationals_by_height()
    while True:
        singles.append(next(gen))
        m = len(singles) - 1
        for combo in itertools.product(range(m + 1), repeat=k):
            if max(combo) == m:
                yield tuple(singles[c] for c in combo)


def integer_poly_corpus(n: int, height: int) -> Iterator[FieldPoly]:
    """All nonzero integer polynomials of coefficient height <= ``height``,
    enumerated by total degree, then by growing height, then lexicographically.

    Height-minor ordering keeps the useful low polynomials (X, X-1, ...) near
    the front instead of burying them under large-coefficient constants.
    A height below 1 holds no polynomial and is refused.
    """
    if height < 1:
        raise ValueError(f"corpus height must be >= 1, got {height}")
    degree = 0
    while True:
        monomials = [
            nu for m in range(degree + 1) for nu in multi_indices_of_degree(n, m)
        ]
        for h in range(1, height + 1):
            for values in itertools.product(range(-h, h + 1), repeat=len(monomials)):
                if max((abs(v) for v in values), default=0) != h:
                    continue
                # exactly this degree: some top coefficient nonzero
                top = [v for nu, v in zip(monomials, values) if sum(nu) == degree]
                if all(v == 0 for v in top):
                    continue
                yield qpoly(n, dict(zip(monomials, values)))
        degree += 1


# ---------------------------------------------------------------------------
# the lazy point
# ---------------------------------------------------------------------------

@dataclass
class ConstraintStream:
    """Equalities (must vanish) and a deterministic avoidance enumeration."""

    equalities: list            # FieldPoly, vanish on the variety
    avoidances: Callable[[], Iterator[FieldPoly]]
    halo_center: Optional[tuple] = None


@dataclass
class LogEntry:
    kind: str                   # equality | avoidance | halo
    description: str
    margin_squared: Optional[Fraction] = None


class LazyHyperPoint:
    """Point generator with a per-index certificate log."""

    def __init__(self, n: int, generator: Callable[[int], tuple], log_fn=None):
        self.n = n
        self._gen = generator
        self._log_fn = log_fn
        self._points: dict[int, tuple] = {}
        self._logs: dict[int, list[LogEntry]] = {}

    def point(self, i: int) -> tuple:
        if i not in self._points:
            self._points[i] = self._gen(i)
        return self._points[i]

    def log(self, i: int) -> list[LogEntry]:
        if self._log_fn is None:
            return []
        if i not in self._logs:
            self.point(i)
            self._logs[i] = self._log_fn(i)
        return self._logs[i]

    @staticmethod
    def constant(values: tuple) -> "LazyHyperPoint":
        vals = tuple(Q(v) for v in values)
        return LazyHyperPoint(len(vals), lambda i: vals)


def generic_point(
    param: Parametrization,
    corpus_factory: Callable[[], Iterator[FieldPoly]],
    halo_center: Optional[tuple] = None,
) -> LazyHyperPoint:
    """The schedule: at index i, satisfy the first i filtered avoidances.

    Corpus elements vanishing identically on the variety are skipped (the
    check composes them with the parametrization and tests the result
    symbolically).  With a halo center, the point additionally stays within
    1/i of it; the search runs over height-ordered rational parameters and
    reports the obstructing constraint set on exhaustion.
    """
    center = tuple(Q(c) for c in halo_center) if halo_center is not None else None
    filtered_cache: list[FieldPoly] = []
    corpus_iter = [corpus_factory()]
    logs: dict[int, list[LogEntry]] = {}

    def filtered_prefix(count: int) -> list[FieldPoly]:
        while len(filtered_cache) < count:
            g = next(corpus_iter[0])
            if not param.vanishes_on_variety(g):
                filtered_cache.append(g)
        return filtered_cache[:count]

    def gen(i: int) -> tuple:
        constraints = filtered_prefix(i)
        budget = GENERIC_HEIGHT_CAP * max(1, i)
        tried = 0
        for params in param_grid(param.k):
            tried += 1
            if tried > budget * 40:
                break
            try:
                pt = param.point_at(params)
            except ZeroDivisionError:
                continue
            entries: list[LogEntry] = []
            if center is not None:
                dist2 = sum((a - b) ** 2 for a, b in zip(pt, center))
                if dist2 > Q(1, i * i):
                    continue
                entries.append(LogEntry("halo", f"|x - center|^2 = {dist2} <= 1/{i * i}"))
            ok = True
            for g in constraints:
                v = g.eval_at(pt)
                if v == 0:
                    ok = False
                    break
                entries.append(
                    LogEntry("avoidance", _fmt_poly(g), margin_squared=v * v)
                )
            if not ok:
                continue
            logs[i] = entries
            return pt
        raise GridExhausted(i, [_fmt_poly(g) for g in constraints])

    return LazyHyperPoint(param.n, gen, log_fn=lambda i: logs.get(i, []))


def _fmt_poly(g: FieldPoly) -> str:
    if not g.coeffs:
        return "0"
    parts = []
    for nu, c in g.coeffs:
        mono = "".join(
            f"x{t + 1}^{e}" if e > 1 else (f"x{t + 1}" if e == 1 else "")
            for t, e in enumerate(nu)
        )
        parts.append(f"{c}{mono}" if mono else str(c))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# nonstandard zero sets and ideals of points
# ---------------------------------------------------------------------------

def v_of_ideal(x: LazyHyperPoint, gens: list[FieldPoly], horizon: int = HORIZON) -> Verdict:
    """Is the point in the nonstandard zero set of the generated ideal?

    Exact vanishing of every generator, eventually in the index.
    """
    if not gens:
        return Verdict(HOLDS, 1, "empty generator list")

    def pred(i: int) -> bool:
        pt = x.point(i)
        return all(g.eval_at(pt) == 0 for g in gens)

    return eventually(pred, horizon, note="exact vanishing of all generators")


def id_of_point(
    x: LazyHyperPoint, candidates: list[FieldPoly], horizon: int = HORIZON
) -> list[FieldPoly]:
    """The candidates vanishing exactly at every sampled index."""
    out = []
    for f in candidates:
        if all(f.eval_at(x.point(i)) == 0 for i in range(1, horizon + 1)):
            out.append(f)
    return out


def evaluation_embedding_check(
    x: LazyHyperPoint,
    residues: list[FieldPoly],
    horizon: int = HORIZON,
    param: Optional[Parametrization] = None,
) -> Verdict:
    """Injectivity of evaluation at the point on a finite residue list.

    When a parametrization is supplied, pairwise distinctness modulo the
    variety is verified symbolically first.
    """
    if param is not None:
        for a in range(len(residues)):
            for b in range(a + 1, len(residues)):
                diff = residues[a].add(residues[b].scale(-1))
                if param.vanishes_on_variety(diff):
                    raise ValueError(
                        f"residues {a} and {b} coincide on the variety"
                    )
    if len(residues) < 2:
        return Verdict(HOLDS, 1, "fewer than two residues: vacuous")
    worst = 1
    for a in range(len(residues)):
        for b in range(a + 1, len(residues)):
            diff = residues[a].add(residues[b].scale(-1))
            v = eventually(
                lambda i, d=diff: d.eval_at(x.point(i)) != 0, horizon
            )
            if not v.holds():
                return Verdict(
                    v.kind, v.witness, f"pair ({a}, {b}) not separated"
                )
            worst = max(worst, v.witness)
    return Verdict(HOLDS, worst, f"all {len(residues)} residues separated")


# ---------------------------------------------------------------------------
# concrete witnesses for the Nullstellensatz criterion
# ---------------------------------------------------------------------------

def nullstellensatz_witness(
    gens: list[FieldPoly],
    witnesses: list[FieldPoly],
    param: Parametrization,
) -> list[tuple]:
    """Standard points satisfying the equations and avoiding witness zero sets.

    Batch L returns a point where every generator vanishes exactly and the
    first L witness polynomials are exactly nonzero; the growing prefixes are
    the finite schedule behind the concurrence argument.
    """
    for f in gens:
        if not param.vanishes_on_variety(f):
            raise ValueError(
                f"parametrization does not cover Z({_fmt_poly(f)})"
            )
    for g in witnesses:
        if param.vanishes_on_variety(g):
            raise ValueError(
                f"witness {_fmt_poly(g)} vanishes identically on the variety"
            )
    out = []
    for ell in range(1, len(witnesses) + 1):
        prefix = witnesses[:ell]
        found = None
        tried = 0
        for params in param_grid(param.k):
            tried += 1
            if tried > WITNESS_HEIGHT_CAP:
                break
            try:
                pt = param.point_at(params)
            except ZeroDivisionError:
                continue
            if all(g.eval_at(pt) != 0 for g in prefix):
                found = pt
                break
        if found is None:
            blockers = [
                _fmt_poly(g) for g in prefix
            ]
            raise GridExhausted(ell, blockers)
        for f in gens:
            assert f.eval_at(found) == 0
        out.append(found)
    return out
