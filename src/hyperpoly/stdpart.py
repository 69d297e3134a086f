"""Standard parts: from internal polynomials to entire power series.

``st_poly`` takes the coefficientwise standard part of a bounded internal
polynomial over the standard multi-indices.  Boundedness is a hard
precondition - the classifier's certificate is checked first and refusals
name the failed clause.  On top of that sit the standard parts of
substitution morphisms, the functor on algebra presentations, and a
zero-set comparator that confronts the roots of the materialized
polynomials with the zeros of their standard part.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Optional

from .classify import PolyClass, classify_poly
from .exacteval import dot
from .hypernum import HyperComplex
from .hypernat import HyperNatural
from .indexexpr import IndexExpr
from .interpoly import (
    InternalPolynomial,
    StructuredPoly,
    TailTerm,
    exp_tail,
    expand,
    mi_sub,
    multi_indices_of_degree,
    truncate_series,
)
from .record import Record, _set
from .roots import durand_kerner

Q = Fraction
Pair = tuple[Fraction, Fraction]
_ZERO: Pair = (Q(0), Q(0))
# zero_set_compare takes the standard part's roots from its truncation to this degree
ST_ORDER = 60


class StandardPartError(ArithmeticError):
    """The polynomial is not certified bounded; standard part refused."""


class StandardPowerSeries:
    """Coefficient stream nu -> exact complex rational, with a display order.

    ``entire`` records the root-test certificate inherited from the bounded
    polynomial the series came from (or declared by a constructor).  A
    ``band`` template (a band without ``hi``), when present, lets truncation
    rebuild a classifiable internal polynomial.
    """

    def __init__(
        self,
        n: int,
        coeff_fn: Callable[[tuple], Pair],
        display_order: int = 12,
        entire: bool = False,
        band: Optional[TailTerm] = None,
    ):
        self.n = n
        self._fn = coeff_fn
        self.display_order = display_order
        self.entire = entire
        self.band = band
        self.support: Optional[dict] = None   # finite support table, when known
        self._memo: dict[tuple, Pair] = {}

    def coeff(self, nu: tuple) -> Pair:
        nu = tuple(nu)
        if nu not in self._memo:
            if len(nu) != self.n:
                raise ValueError(
                    f"multi-index {nu} does not fit a series in {self.n} variable(s)")
            c = self._fn(nu)
            self._memo[nu] = (Q(c[0]), Q(c[1])) if isinstance(c, tuple) else (Q(c), Q(0))
        return self._memo[nu]

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def from_dict(n: int, coeffs: dict, display_order: int = 12) -> "StandardPowerSeries":
        table = {
            tuple(k): (v if isinstance(v, tuple) else (Q(v), Q(0)))
            for k, v in coeffs.items()
        }

        def fn(nu):
            return table.get(tuple(nu), _ZERO)

        s = StandardPowerSeries(n, fn, display_order, entire=True)
        s.support = dict(table)
        return s

    @staticmethod
    def _of_band(band: TailTerm) -> "StandardPowerSeries":
        """The entire univariate series with coefficients ``band.phi_at(m)``."""
        return StandardPowerSeries(1, lambda nu: band.phi_at(nu[0]), entire=True, band=band)

    @staticmethod
    def exp() -> "StandardPowerSeries":
        return StandardPowerSeries._of_band(exp_tail())

    @staticmethod
    def sin_like() -> "StandardPowerSeries":
        """Alternating odd series: x - x^3/3! + x^5/5! - ..."""
        zero = IndexExpr.const(0)
        m_fact = IndexExpr.factorial()
        return StandardPowerSeries._of_band(TailTerm(phi=(zero, 1 / m_fact, zero, -1 / m_fact)))

    @staticmethod
    def damped_rational() -> "StandardPowerSeries":
        """Entire series with rational non-factorial structure: 1/(m! (m+1))."""
        m = IndexExpr.index()
        return StandardPowerSeries._of_band(TailTerm(phi=(1 / (IndexExpr.factorial() * (m + 1)),)))

    # -- ring structure ----------------------------------------------------------
    def _check_arity(self, other: "StandardPowerSeries", what: str):
        if self.n != other.n:
            raise ValueError(f"variable-count mismatch in {what}: {self.n} and {other.n}")

    def __add__(self, other: "StandardPowerSeries") -> "StandardPowerSeries":
        self._check_arity(other, "sum")

        def fn(nu):
            a, b = self.coeff(nu), other.coeff(nu)
            return (a[0] + b[0], a[1] + b[1])

        return StandardPowerSeries(
            self.n, fn, max(self.display_order, other.display_order),
            self.entire and other.entire,
        )

    def __mul__(self, other: "StandardPowerSeries") -> "StandardPowerSeries":
        """The Cauchy product, one coefficient at a time: a stream is no finite table."""
        self._check_arity(other, "product")

        def fn(nu):
            return dot(
                (self.coeff(mu), other.coeff(mi_sub(nu, mu)))
                for mu in itertools.product(*(range(k + 1) for k in nu))
            )

        return StandardPowerSeries(
            self.n, fn, max(self.display_order, other.display_order),
            self.entire and other.entire,
        )

    def eq_to_order(self, other: "StandardPowerSeries", order: int) -> bool:
        self._check_arity(other, "comparison")
        for m in range(order + 1):
            for nu in multi_indices_of_degree(self.n, m):
                if self.coeff(nu) != other.coeff(nu):
                    return False
        return True

    def is_constant_to_order(self, order: int) -> bool:
        return all(
            self.coeff(nu) == _ZERO
            for m in range(1, order + 1)
            for nu in multi_indices_of_degree(self.n, m)
        )

    def coefficients_up_to(self, order: int) -> dict[tuple, Pair]:
        out = {}
        for m in range(order + 1):
            for nu in multi_indices_of_degree(self.n, m):
                c = self.coeff(nu)
                if c != _ZERO:
                    out[nu] = c
        return out

    def to_json(self, order: Optional[int] = None):
        order = self.display_order if order is None else order
        return {
            "n": self.n,
            "order": order,
            "entire": self.entire,
            "coefficients": {
                ",".join(map(str, k)): [str(v[0]), str(v[1])]
                for k, v in self.coefficients_up_to(order).items()
            },
        }


# ---------------------------------------------------------------------------
# st on polynomials
# ---------------------------------------------------------------------------

def st_poly(p: InternalPolynomial, cls: Optional[PolyClass] = None) -> StandardPowerSeries:
    """Coefficientwise standard part over standard multi-indices.

    Refuses anything the classifier does not certify bounded, naming the
    clause that failed.
    """
    cls = cls if cls is not None else classify_poly(p)
    if not cls.bounded:
        raise StandardPartError(
            f"standard part needs a bounded polynomial; classifier says "
            f"{cls.verdict} ({'; '.join(map(str, cls.certificate.details))})"
        )

    def fn(nu):
        c = p.coeff(nu)
        st = c.standard_part()
        if st is None:
            raise StandardPartError(
                f"coefficient at {nu} oscillates; no standard part"
            )
        return st

    return StandardPowerSeries(p.n, fn, entire=True)


# ---------------------------------------------------------------------------
# st on morphisms
# ---------------------------------------------------------------------------

class SeriesMorphism(Record):
    """Substitution h -> h(g_1, ..., g_n) by standard parts of bounded images."""

    __slots__ = ("images", "n_source", "m_target")
    def __init__(self, images: list[StandardPowerSeries], n_source: int, m_target: int):
        self.images = images  # the series st(g_j), each in m variables
        self.n_source = n_source  # h lives in this many variables
        self.m_target = m_target

    def apply(self, h: StandardPowerSeries, order: int) -> StandardPowerSeries:
        if h.n != self.n_source:
            raise ValueError("series arity does not match the morphism source")
        zero = tuple([0] * self.m_target)
        if any(g.coeff(zero) != _ZERO for g in self.images):
            # constant terms present: every term of h reaches every degree, so
            # only a finitely supported h substitutes exactly
            if h.support is None:
                raise ValueError(
                    "images with constant terms substitute only into finitely supported series")
            terms = h.support.items()
        else:
            terms = h.coefficients_up_to(order).items()
        out = expand(
            ((nu, StandardPowerSeries.from_dict(self.m_target, {zero: c})) for nu, c in terms),
            self.images, StandardPowerSeries.from_dict(self.m_target, {}))
        return StandardPowerSeries.from_dict(
            self.m_target, out.coefficients_up_to(order), display_order=order)


def st_morphism(images: list[InternalPolynomial]) -> SeriesMorphism:
    """The standard part of the substitution X_j -> g_j.

    Every image must classify bounded; the returned morphism acts on series
    by substituting the standard parts.
    """
    sts = []
    m_target = images[0].n if images else 1
    for j, g in enumerate(images):
        cls = classify_poly(g)
        if not cls.bounded:
            raise StandardPartError(
                f"morphism image {j} is not bounded ({cls.verdict})"
            )
        if g.n != m_target:
            raise ValueError("morphism images must share a variable count")
        sts.append(st_poly(g, cls))
    return SeriesMorphism(sts, n_source=len(images), m_target=m_target)


# ---------------------------------------------------------------------------
# algebra presentations and the functor
# ---------------------------------------------------------------------------

class AlgebraPresentation(Record):
    """A quotient presentation by a finite generator list.

    The bounded side carries internal polynomials, the analytic side entire
    power series.  Closures are never computed: equality of presentations is
    generator-level only, and finite generator lists keep the ideal saturated.
    """

    __slots__ = ("side", "n", "ideal_gens")
    def __init__(self, side: str, n: int, ideal_gens: Optional[list] = None):
        self.side = side    # bounded | analytic
        self.n = n
        self.ideal_gens = [] if ideal_gens is None else ideal_gens
        if self.side not in ("bounded", "analytic"):
            raise ValueError("side must be 'bounded' or 'analytic'")
        if self.side == "bounded":
            for g in self.ideal_gens:
                cls = classify_poly(g)
                if not cls.bounded:
                    raise ValueError(
                        f"bounded presentation requires bounded generators, got {cls.verdict}"
                    )
        else:
            for g in self.ideal_gens:
                if not g.entire:
                    raise ValueError("analytic presentation requires entire certificates")


def st_functor(a: AlgebraPresentation) -> AlgebraPresentation:
    """Generatorwise standard part; essentially surjective by truncation lifts."""
    if a.side != "bounded":
        raise ValueError("the standard part functor starts on the bounded side")
    return AlgebraPresentation(
        "analytic", a.n, [st_poly(g) for g in a.ideal_gens]
    )


def lift_series(g: StandardPowerSeries, d: HyperNatural) -> InternalPolynomial:
    """A bounded internal polynomial with standard part g (truncation lift)."""
    if not g.entire:
        raise ValueError("only entire series lift to bounded polynomials")
    if g.band is not None:
        return StructuredPoly(g.n, d, tails=(g.band,))
    if g.support is not None:
        explicit = {nu: HyperComplex.from_rational(c[0], c[1]) for nu, c in g.support.items()}
        return StructuredPoly(g.n, d, explicit)
    return truncate_series(g.coeff, d, n=g.n)


# ---------------------------------------------------------------------------
# zero sets
# ---------------------------------------------------------------------------

class ZeroSetReport(Record, frozen=True):
    __slots__ = ("radius", "indices", "roots_by_index", "st_roots", "matching_distance",
                 "decreasing")
    def __init__(self, radius: float, indices: tuple[int, ...], roots_by_index: dict[int, tuple],
                 st_roots: tuple, matching_distance: dict[int, float], decreasing: bool):
        _set(self, "radius", radius)
        _set(self, "indices", indices)
        _set(self, "roots_by_index", roots_by_index)
        _set(self, "st_roots", st_roots)
        _set(self, "matching_distance", matching_distance)
        _set(self, "decreasing", decreasing)

    def to_json(self):
        return {
            "radius": self.radius,
            "indices": list(self.indices),
            "roots": {
                str(i): [[r.real, r.imag] for r in rs]
                for i, rs in self.roots_by_index.items()
            },
            "standardPartRoots": [[r.real, r.imag] for r in self.st_roots],
            "matchingDistance": {str(i): d for i, d in self.matching_distance.items()},
            "decreasing": self.decreasing,
        }


def zero_set_compare(
    p: InternalPolynomial,
    radius,
    at_indices: list[int],
    tol: float = 1e-9,
) -> ZeroSetReport:
    """Roots of P_i in |x| <= R against the zeros of the standard part.

    The standard part must be nonconstant on the box (otherwise its zero set
    carries no information and the comparison is refused).
    """
    if p.n != 1:
        raise ValueError("zero-set comparison is univariate")
    s = st_poly(p)
    if s.is_constant_to_order(ST_ORDER):
        raise StandardPartError(
            "standard part is constant on the box; zero sets are not comparable"
        )
    R = float(radius)
    st_coeffs = [complex(*s.coeff((k,))) for k in range(ST_ORDER + 1)]
    st_roots = tuple(r for r in durand_kerner(st_coeffs) if abs(r) <= R * 1.5)
    roots_by_index: dict[int, tuple] = {}
    distance: dict[int, float] = {}
    for i in at_indices:
        mat = p.materialize(i)
        deg = max((nu[0] for nu in mat), default=0)
        coeffs = [0j] * (deg + 1)
        for nu, c in mat.items():
            coeffs[nu[0]] = complex(c[0], c[1])
        roots = tuple(r for r in durand_kerner(coeffs) if abs(r) <= R)
        roots_by_index[i] = roots
        if roots and st_roots:
            distance[i] = max(
                min(abs(r - sr) for sr in st_roots) for r in roots
            )
        else:
            distance[i] = float("inf") if roots or st_roots else 0.0
    ds = [distance[i] for i in at_indices]
    decreasing = all(b <= a + tol for a, b in zip(ds, ds[1:]))
    return ZeroSetReport(
        R, tuple(at_indices), roots_by_index, st_roots, distance, decreasing
    )
