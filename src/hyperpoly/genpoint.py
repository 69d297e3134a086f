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
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Optional

from .completion import FieldPoly
from .interpoly import add_terms, multi_indices_of_degree
from .record import Record, _set
from .verdicts import HOLDS, HORIZON, GridExhausted, Verdict, eventually

Q = Fraction

# grid points tried: 40 * GENERIC_HEIGHT_CAP * i by generic_point at index i,
# WITNESS_HEIGHT_CAP by nullstellensatz_witness per batch
GENERIC_HEIGHT_CAP = 64
WITNESS_HEIGHT_CAP = 4096


def qpoly(n: int, coeffs: dict) -> FieldPoly:
    return FieldPoly.make("Q", n, coeffs)


# ---------------------------------------------------------------------------
# rational functions and parametrizations
# ---------------------------------------------------------------------------

class RationalFunc(Record, frozen=True):
    __slots__ = ("num", "den")
    def __init__(self, num: FieldPoly, den: FieldPoly):
        _set(self, "num", num)
        _set(self, "den", den)

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


class Parametrization(Record, frozen=True):
    """A rational map from k parameters onto (a dense subset of) the variety."""

    __slots__ = ("k", "coords")
    def __init__(self, k: int, coords: tuple):
        _set(self, "k", k)
        _set(self, "coords", coords)  # RationalFunc per ambient coordinate

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
        return Parametrization(1, (RationalFunc.of(one_minus, one_plus),
                                   RationalFunc.of(two_t, one_plus)))

    def point_at(self, params) -> tuple:
        return tuple(c.eval_at(params) for c in self.coords)

    def vanishes_on_variety(self, g: FieldPoly) -> bool:
        """Is g zero on the variety?  With x_v = p_v/q_v and E_v the top
        exponent of X_v in g: is sum c_nu prod p_v^nu_v q_v^(E_v - nu_v) the
        zero polynomial of the parameters?"""
        if g.n != self.n:
            raise ValueError("ambient arity mismatch")
        one = qpoly(self.k, {(0,) * self.k: 1})
        tables = []                 # (p_v powers, q_v powers, E_v) per coordinate
        for v, x in enumerate(self.coords):
            top = max((nu[v] for nu, _ in g.coeffs), default=0)
            nums, dens = [one], [one]
            for _ in range(top):
                nums.append(nums[-1].mul(x.num))
                dens.append(dens[-1].mul(x.den))
            tables.append((nums, dens, top))
        total: dict = {}
        for nu, c in g.coeffs:
            term = qpoly(self.k, {(0,) * self.k: c})
            for e, (nums, dens, top) in zip(nu, tables):
                term = term.mul(nums[e]).mul(dens[top - e])
            add_terms(total, term.coeffs)
        return not any(total.values())


# ---------------------------------------------------------------------------
# deterministic enumerations
# ---------------------------------------------------------------------------

def rationals_by_height() -> Iterator[Fraction]:
    """0, 1, -1, 1/2, -1/2, 2, -2, 1/3, ... : all rationals, height-ordered."""
    yield Q(0)
    for h in itertools.count(1):
        # height h by |x|: p/h for p < h, then h/q for q from h down to 1;
        # each value before its negative
        row = [Q(p, h) for p in range(1, h) if gcd(p, h) == 1]
        row += [Q(h, q) for q in range(h, 0, -1) if gcd(h, q) == 1]
        for v in row:
            yield v
            yield -v


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

class LogEntry(Record):
    __slots__ = ("kind", "description", "margin_squared")
    def __init__(self, kind: str, description: str,
                 margin_squared: Optional[Fraction] = None):
        self.kind = kind  # equality | avoidance | halo
        self.description = description
        self.margin_squared = margin_squared


class LazyHyperPoint:
    """Point generator with a per-index certificate log."""

    def __init__(self, n: int, generator: Callable[[int], tuple], log_fn=None):
        self.n = n
        self._gen = generator
        self._log_fn = log_fn
        self._points: dict[int, tuple] = {}

    def point(self, i: int) -> tuple:
        if i not in self._points:
            self._points[i] = self._gen(i)
        return self._points[i]

    def log(self, i: int) -> list[LogEntry]:
        if self._log_fn is None:
            return []
        self.point(i)
        return self._log_fn(i)

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
    test clears the parametrization's denominators and is exact).  With a
    halo center, the point additionally stays within 1/i of it; the search
    runs over height-ordered rational parameters and reports the obstructing
    constraint set, or the halo when no tried point lay in it, on exhaustion.
    """
    center = tuple(Q(c) for c in halo_center) if halo_center is not None else None
    filtered_cache: list[FieldPoly] = []
    corpus = corpus_factory()
    logs: dict[int, list[LogEntry]] = {}

    def filtered_prefix(count: int) -> list[FieldPoly]:
        while len(filtered_cache) < count:
            g = next(corpus)
            if not param.vanishes_on_variety(g):
                filtered_cache.append(g)
        return filtered_cache[:count]

    def gen(i: int) -> tuple:
        constraints = filtered_prefix(i)
        halo = None if center is None else (center, Q(1, i * i))
        pt, values = _avoiding_point(
            param, constraints, GENERIC_HEIGHT_CAP * max(1, i) * 40, i, halo)
        entries = []
        if center is not None:
            entries.append(LogEntry(
                "halo", f"|x - center|^2 = {_dist2(pt, center)} <= 1/{i * i}"))
        entries += [LogEntry("avoidance", _fmt_poly(g), margin_squared=v * v)
                    for g, v in zip(constraints, values)]
        logs[i] = entries
        return pt

    return LazyHyperPoint(param.n, gen, log_fn=lambda i: logs.get(i, []))


def _avoiding_point(param, polys, tries, index, halo=None) -> tuple:
    """The first of ``tries`` grid points, off the poles and inside the halo
    ``(center, r^2)`` if one is given, where no poly of ``polys`` vanishes;
    returned with the values of ``polys`` there."""
    inside = False
    for params in itertools.islice(param_grid(param.k), tries):
        try:
            pt = param.point_at(params)
        except ZeroDivisionError:
            continue
        if halo is not None and _dist2(pt, halo[0]) > halo[1]:
            continue
        inside = True
        values = []
        for g in polys:
            v = g.eval_at(pt)
            if v == 0:
                break
            values.append(v)
        else:
            return pt, values
    if halo is not None and not inside:
        raise GridExhausted(index, [f"halo |x - center|^2 <= {halo[1]}"])
    raise GridExhausted(index, [_fmt_poly(g) for g in polys])


def _dist2(pt: tuple, center: tuple) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(pt, center))


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
    return [f for f in candidates
            if all(f.eval_at(x.point(i)) == 0 for i in range(1, horizon + 1))]


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
    diffs = [(a, b, residues[a].add(residues[b].scale(-1)))
             for a, b in itertools.combinations(range(len(residues)), 2)]
    if param is not None:
        for a, b, diff in diffs:
            if param.vanishes_on_variety(diff):
                raise ValueError(f"residues {a} and {b} coincide on the variety")
    if len(residues) < 2:
        return Verdict(HOLDS, 1, "fewer than two residues: vacuous")
    worst = 1
    for a, b, diff in diffs:
        v = eventually(lambda i, d=diff: d.eval_at(x.point(i)) != 0, horizon)
        if not v.holds():
            return Verdict(v.kind, v.witness, f"pair ({a}, {b}) not separated")
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
            raise ValueError(f"parametrization does not cover Z({_fmt_poly(f)})")
    for g in witnesses:
        if param.vanishes_on_variety(g):
            raise ValueError(f"witness {_fmt_poly(g)} vanishes identically on the variety")
    out = []
    for ell in range(1, len(witnesses) + 1):
        found, _ = _avoiding_point(param, witnesses[:ell], WITNESS_HEIGHT_CAP, ell)
        for f in gens:
            assert f.eval_at(found) == 0
        out.append(found)
    return out
