"""Internal polynomials of hyperfinite degree.

An internal polynomial is a sequence of honest polynomials ``P_i`` of degree
at most ``d_i``, presented by coefficient rules rather than materialized
lists.  Three kinds of rule coexist:

* ``explicit``: finitely many standard multi-indices with hypercomplex
  coefficients;
* ``tails``: coefficient families ``a(nu, i) = phi(|nu|) * eps(i)^|nu| * psi(i)``
  on a (possibly moving) band of total degrees ``lo < |nu| <= hi`` - the shape
  every truncated power series takes here;
* ``tops``: univariate monomials ``c(i) * X^(e_i)`` of a moving degree ``e``,
  which is how ``X^d`` with infinite ``d`` lives.

Each band's ``hi`` and each top's degree is its own hypernatural, at most the
polynomial's degree: a band given without ``hi`` runs up to the degree it is
built under.  So sums, scalar multiples, products with ``c X^k`` and
derivatives stay in this structured form by keeping, shifting or lowering
each bound, and the polynomial's degree only clips explicit coefficients.
Products are kept as lazy nodes: each builds the integer row of an index
(see :mod:`~hyperpoly.exacteval`) from its operands' rows and exposes exact
standard-index coefficient streams, which is all the downstream maps need.

``P_i`` is its row, so a coefficient's value at ``i`` is its entry in that row:
a structured or truncated coefficient reads it below the index where its forms
take over, and a ``LazyPoly`` coefficient with no rule of its own at every
index.  Sums, scalar multiples, products and derivatives take their values
from their operands' coefficients instead, so a product coefficient has no
value where a factor has none, though the row leaves that factor's term out.

Every finite ``{multi-index: coefficient}`` table, whatever its ring (the
explicit part here, ``completion.FieldPoly``, the dX-slices of a
``leibniz.DiffElement``), is summed by :func:`add_terms` and multiplied by
:func:`times_terms`, and :func:`expand` expands its monomials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from operator import add, sub
from typing import Iterable, Iterator, Optional

from .exacteval import (Row, dot, evaluate, fraction_table, multiply_rows, part, parts_of_row,
                        row_of_parts)
from .hypernat import HyperNatural
from .hypernum import HyperComplex, coerce as hc_coerce
from .indexexpr import ZERO_EXPR, IndexExpr
from .record import Record, _set

Q = Fraction
MultiIndex = tuple[int, ...]
Pair = tuple[Fraction, Fraction]

_ZERO: Pair = (Q(0), Q(0))


def mi_total(nu: MultiIndex) -> int:
    return sum(nu)


def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """``a - b`` for ``b <= a``."""
    return tuple(map(sub, a, b))


def multi_indices_of_degree(n: int, m: int) -> Iterable[MultiIndex]:
    """All nu in N^n with |nu| = m."""
    if n == 1:
        yield (m,)
        return
    for head in range(m + 1):
        for rest in multi_indices_of_degree(n - 1, m - head):
            yield (head,) + rest


def _box_convolution(f, g, nu: MultiIndex) -> HyperComplex:
    """The coefficient at ``nu`` of a product: ``f(mu) * g(nu - mu)`` summed
    over ``mu <= nu`` in lexicographic order.  It reads one coefficient of
    two streams, which have no finite table for :func:`times_terms`.

    Symbolic factors build the forms with the operations of the chained
    ``HyperComplex`` sum, starting from the shared zero ``ZERO_EXPR``, and
    below the factors' largest ``until`` the value is one :func:`dot` of the
    factors' values.  Any generator-backed factor sends the whole sum through
    ``HyperComplex``.
    """
    pairs = [(f(mu), g(mi_sub(nu, mu)))
             for mu in itertools.product(*(range(k + 1) for k in nu))]
    if not all(a.symbolic and b.symbolic for a, b in pairs):
        return sum((a * b for a, b in pairs), HyperComplex.from_rational(0))
    re = im = ZERO_EXPR
    for a, b in pairs:
        re = re + (a.re * b.re - a.im * b.im)
        im = im + (a.re * b.im + a.im * b.re)
    until = max(x.until for pair in pairs for x in pair)
    return HyperComplex(re, im, until,
                        lambda i: dot([(a.value_exact(i), b.value_exact(i)) for a, b in pairs]))


class TailTerm(Record, frozen=True):
    """Coefficient band ``a(nu, i) = phi(|nu|) * eps(i)^|nu| * psi(i)``.

    ``phi`` is one expression per residue of ``|nu|`` modulo its length, each
    read as a function of the total degree m; this admits sign patterns like
    a sine series without leaving the decidable fragment.  The band covers
    ``lo < |nu| <= hi``; no ``lo`` starts it at degree 0.  A band without
    ``hi`` is an unbounded template (a series' coefficient rule), which
    :class:`StructuredPoly` bounds by the degree it is built under.
    """

    __slots__ = ("phi", "eps", "psi_re", "psi_im", "lo", "hi")
    def __init__(self, phi: tuple[IndexExpr, ...], eps=None, psi_re=None, psi_im=None,
                 lo: Optional[HyperNatural] = None, hi: Optional[HyperNatural] = None):
        _set(self, "phi", phi)    # eps, psi_re and psi_im default to new 1, 1 and 0
        _set(self, "eps", IndexExpr.const(1) if eps is None else eps)
        _set(self, "psi_re", IndexExpr.const(1) if psi_re is None else psi_re)
        _set(self, "psi_im", IndexExpr.const(0) if psi_im is None else psi_im)
        _set(self, "lo", lo)    # exclusive lower bound on |nu|
        _set(self, "hi", hi)    # inclusive upper bound on |nu|

    @staticmethod
    def from_degree_rule(phi: IndexExpr | tuple, **kw) -> "TailTerm":
        phi_t = (phi,) if isinstance(phi, IndexExpr) else tuple(phi)
        return TailTerm(phi=phi_t, **kw)

    def phi_at(self, m: int) -> Fraction:
        return self.phi[m % len(self.phi)].eval(m)

    def values(self, degrees: range, i: int) -> Iterator[tuple[int, int, int, int]]:
        """``(m, re, im, den)``, ``phi(m) * eps(i)^m * psi(i) = (re + i im) / den``, for
        ``m`` in the step-1 range ``degrees``, in integers: ``eps(i)^m`` as running
        powers of eps's numerator and denominator, ``psi(i)`` as one Gaussian
        integer over one denominator.  ``eps`` and ``psi`` are read after the
        first ``phi``, so an empty range reads nothing and a vanishing
        denominator raises the error of the term-by-term product.
        """
        for m in degrees:
            f = self.phi_at(m)
            if m == degrees.start:
                en, ed = self.eps.eval(i).as_integer_ratio()
                re, im = self.psi_re.eval(i), self.psi_im.eval(i)
                sr, si = re.numerator * im.denominator, im.numerator * re.denominator
                sd = re.denominator * im.denominator
                pn, pd = en ** m, ed ** m
            else:
                pn *= en
                pd *= ed
            n = f.numerator * pn
            yield m, n * sr, n * si, f.denominator * pd * sd

    def in_range(self, m: int, i: int) -> bool:
        return (self.lo is None or m > self.lo.value(i)) and m <= self.hi.value(i)


class TopTerm(Record, frozen=True):
    """Univariate moving monomial ``coeff * X^degree``."""

    __slots__ = ("degree", "coeff")
    def __init__(self, degree: HyperNatural, coeff: HyperComplex):
        _set(self, "degree", degree)
        _set(self, "coeff", coeff)


class InternalPolynomial:
    """Common interface; see the concrete classes below.

    Each representation gives ``rule``, which builds the integer row of index
    ``i`` (see :mod:`~hyperpoly.exacteval`) and holds no reference to the
    polynomial, and ``_coeff(nu, entry)``, where ``entry(i)`` is ``nu``'s entry
    of the row of ``i``.  This class keeps rows, their ``Fraction`` views
    (:meth:`materialize`) and coefficients for the life of the object, with no
    cap; an index whose row raises is not kept.
    """

    def __init__(self, n: int, degree: HyperNatural, rule):
        self.n = n
        self.degree = degree
        self._rule = rule
        self._rows: dict[int, Row] = {}
        self._materialized: dict[int, dict[MultiIndex, Pair]] = {}
        self._coeffs: dict[MultiIndex, HyperComplex] = {}

    def row(self, i: int) -> Row:
        return _row_at(self._rows, self._rule, i)

    def materialize(self, i: int) -> dict[MultiIndex, Pair]:
        """``P_i`` as ``{nu: (re, im)}``, nonzero coefficients in row order."""
        out = self._materialized.get(i)
        if out is None:
            out = self._materialized[i] = fraction_table(self.row(i))
        return out

    def coeff(self, nu: MultiIndex) -> HyperComplex:
        nu = tuple(nu)
        out = self._coeffs.get(nu)
        if out is None:
            # entry holds the rows and the rule, not self, so self._coeffs makes no reference cycle
            out = self._coeffs[nu] = self._coeff(nu, partial(_entry, self._rows, self._rule, nu))
        return out

    def _coeff(self, nu: MultiIndex, entry) -> HyperComplex:
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------
    def eval_exact(self, i: int, point: tuple[Pair, ...]) -> Pair:
        """Exact value of ``P_i`` at a point of exact ``(re, im)`` pairs.

        The row's numerators and the point over one denominator make the sum
        an integer computation; each part of the value becomes one ``Fraction``.
        """
        if len(point) != self.n:
            raise ValueError(f"point has arity {len(point)}, polynomial has {self.n}")
        ((re, im, den),) = evaluate((self.row(i),), point)
        return (Q(re, den), Q(im, den))

    def __add__(self, other):
        return poly_add(self, other)

    def __sub__(self, other):
        return poly_add(self, scalar_mul(-1, other))

    def __mul__(self, other):
        return poly_mul(self, other)


def _row_at(rows: dict, rule, i: int) -> Row:
    """The row of index ``i``: kept in ``rows``, or built by ``rule`` and kept."""
    out = rows.get(i)
    if out is None:
        out = rows[i] = rule(i)
    return out


def _entry(rows: dict, rule, nu: MultiIndex, i: int) -> Pair:
    """``nu``'s coefficient in the row of index ``i``, and 0 where the row has
    no term at ``nu``."""
    row = _row_at(rows, rule, i)
    den = row[0]
    for k, _, re, im, _ in row[3]:
        if k == nu:
            return Q(re, den), Q(im, den)
    return _ZERO


def _refuse_generator(c: HyperComplex):
    if not c.symbolic:
        raise TypeError("a structured coefficient must be symbolic, not generator-backed")


class StructuredPoly(InternalPolynomial):
    """Explicit coefficients, tail bands and moving monomials, each band and
    top within ``degree``."""

    def __init__(
        self,
        n: int,
        degree: HyperNatural,
        explicit: Optional[dict[MultiIndex, HyperComplex]] = None,
        tails: tuple[TailTerm, ...] = (),
        tops: tuple[TopTerm, ...] = (),
    ):
        if n < 1:
            raise ValueError("need at least one variable")
        if tops and n != 1:
            raise ValueError("top-anchored monomials are univariate only")
        explicit = {tuple(k): hc_coerce(v) for k, v in (explicit or {}).items()}
        # a band without hi runs up to this degree; one band object listed twice
        # stays one object (the classifier tells bands apart by identity)
        anchored = {id(t): t if t.hi is not None else t.replace(hi=degree) for t in tails}
        tails = tuple(anchored[id(t)] for t in tails)
        tops = tuple(tops)
        super().__init__(n, degree, partial(_structured_row, n, degree, explicit, tails, tops))
        self.explicit, self.tails, self.tops = explicit, tails, tops
        for k, c in self.explicit.items():
            if len(k) != n:
                raise ValueError(f"multi-index {k} has wrong arity")
            _refuse_generator(c)
        for t in self.tops:
            _refuse_generator(t.coeff)

    # named on this class too, so that a per-class wrapper (perfbench/tracing.py) finds them
    materialize = InternalPolynomial.materialize
    coeff = InternalPolynomial.coeff

    # -- exact coefficient streams --------------------------------------------------
    def _stable_from(self, m: int) -> int:
        """Index from which all band/degree comparisons at level m are constant."""
        bounds = ([self.degree] + [t.hi for t in self.tails] + [t.degree for t in self.tops]
                  + [t.lo for t in self.tails if t.lo is not None])
        return max(b.stable_from(m) for b in bounds)

    def _coeff(self, nu: MultiIndex, entry) -> HyperComplex:
        """The rules' forms from :meth:`_stable_from` and the coefficients' own
        ``until`` on, and the row's entry below.  Each part starts from the shared
        zero ``ZERO_EXPR``, so a part that no rule reaches is that one object."""
        if len(nu) != self.n:
            raise ValueError("multi-index arity mismatch")
        m = mi_total(nu)
        T = max([self._stable_from(m)] + [t.coeff.until for t in self.tops])
        if nu in self.explicit:
            T = max(T, self.explicit[nu].until)
        re = im = ZERO_EXPR
        if nu in self.explicit and self.degree.value(T) >= m:
            c = self.explicit[nu]
            re, im = re + c.re, im + c.im
        for t in self.tops:
            if t.degree.value(T) == m:
                re, im = re + t.coeff.re, im + t.coeff.im
        for t in self.tails:
            if t.in_range(m, T):
                f = IndexExpr.const(t.phi_at(m)) * t.eps**m
                re = re + f * t.psi_re
                im = im + f * t.psi_im
        return HyperComplex(re, im, T, entry)


def _structured_row(n: int, degree: HyperNatural, explicit: dict, tails: tuple, tops: tuple,
                    i: int) -> Row:
    """The row of a structured polynomial: band values, then tops, then explicit
    coefficients, summed in integers."""
    parts = []
    for t in tails:
        lo = t.lo.value(i) if t.lo is not None else -1
        for m, re, im, den in t.values(range(lo + 1, t.hi.value(i) + 1), i):
            if re or im:
                parts += [(nu, re, im, den) for nu in multi_indices_of_degree(n, m)]
    d_i = degree.value(i)
    exact = [((t.degree.value(i),), t.coeff) for t in tops]
    exact += [(nu, c) for nu, c in explicit.items() if mi_total(nu) <= d_i]
    for nu, c in exact:
        try:
            parts.append(part(nu, c.value_exact(i)))
        except ZeroDivisionError:
            pass   # a coefficient with no value at i is left out
    return row_of_parts(parts, n)


class ProductPoly(InternalPolynomial):
    """Lazy exact product; coefficient streams come from finite convolution."""

    def __init__(self, p: InternalPolynomial, q: InternalPolynomial):
        if p.n != q.n:
            raise ValueError("variable-count mismatch in product")
        super().__init__(p.n, p.degree + q.degree, lambda i: multiply_rows(p.row(i), q.row(i)))
        self.p = p
        self.q = q

    coeff = InternalPolynomial.coeff  # named here for the same reason as StructuredPoly's

    def _coeff(self, nu: MultiIndex, entry) -> HyperComplex:
        return _box_convolution(self.p.coeff, self.q.coeff, nu)

    def eval_exact(self, i: int, point: tuple[Pair, ...]) -> Pair:
        # the product of the factors' values; the expansion is never built
        (a, b), (c, d) = self.p.eval_exact(i, point), self.q.eval_exact(i, point)
        return (a * c - b * d, a * d + b * c)


class LazyPoly(InternalPolynomial):
    """Polynomial defined by a row rule (lazy sums and scalar multiples,
    derivatives, truncated series).

    ``fn(i)`` returns the ``(nu, re, im, den)`` parts of index ``i``, which
    :func:`~hyperpoly.exacteval.row_of_parts` sums into its row.
    ``coeff_fn(nu, entry)`` gives the coefficient at ``nu``; without it, the
    coefficient is the row's entry at every index.
    """

    def __init__(self, n: int, degree: HyperNatural, fn, coeff_fn=None):
        super().__init__(n, degree, lambda i: row_of_parts(fn(i), n))
        self._coeff_fn = coeff_fn

    def _coeff(self, nu: MultiIndex, entry) -> HyperComplex:
        if self._coeff_fn is None:
            return HyperComplex(gen=entry)
        return self._coeff_fn(nu, entry)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_poly(n: int = 1) -> StructuredPoly:
    return StructuredPoly(n, HyperNatural.constant(0))

def monomial(n: int, nu: MultiIndex, coeff=1) -> StructuredPoly:
    nu = tuple(nu)
    return StructuredPoly(
        n, HyperNatural.constant(mi_total(nu)), {nu: hc_coerce(coeff)}
    )

def variable(n: int, var: int) -> StructuredPoly:
    nu = tuple(1 if t == var else 0 for t in range(n))
    return monomial(n, nu)

def constant(n: int, value) -> StructuredPoly:
    return StructuredPoly(n, HyperNatural.constant(0), {tuple([0] * n): hc_coerce(value)})

def moving_monomial(degree: HyperNatural, coeff=1) -> StructuredPoly:
    """Univariate c * X^d."""
    return StructuredPoly(1, degree, tops=(TopTerm(degree, hc_coerce(coeff)),))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def poly_add(p: InternalPolynomial, q: InternalPolynomial) -> InternalPolynomial:
    if p.n != q.n:
        raise ValueError("variable-count mismatch in sum")
    if isinstance(p, StructuredPoly) and isinstance(q, StructuredPoly):
        explicit = add_terms(dict(p.explicit), q.explicit.items())
        explicit = {k: v for k, v in explicit.items() if not v.is_zero_expr() or v.until > 1}
        return StructuredPoly(
            p.n,
            p.degree.max_with(q.degree),
            explicit,
            _merge_tails(p.tails + q.tails),
            p.tops + q.tops,
        )
    deg = p.degree.max_with(q.degree)

    def fn(i):
        return parts_of_row(p.row(i)) + parts_of_row(q.row(i))

    return LazyPoly(p.n, deg, fn, coeff_fn=lambda nu, _: p.coeff(nu) + q.coeff(nu))


def _hn_le_everywhere(a: HyperNatural, b: HyperNatural) -> bool:
    """a(i) <= b(i) for every i >= 1, not just eventually.

    Past the patches and the clipping at 0 both are affine, and the gap
    b - a is nondecreasing there when a's slope is at most b's.
    """
    if a.slope > b.slope:
        return False
    hi = max([0] + [j for j, _ in a.patches + b.patches]
             + [-(h.intercept // h.slope) for h in (a, b) if h.slope])
    return all(a.value(i) <= b.value(i) for i in range(1, hi + 2))


def _same_rule_and_lo(u: TailTerm, t: TailTerm) -> bool:
    """The two bands have the same phi, the same eps and the same lower bound."""
    return (len(u.phi) == len(t.phi) and all(a.eq(b) for a, b in zip(u.phi, t.phi))
            and u.eps.eq(t.eps) and (u.lo is t.lo or None not in (u.lo, t.lo) and u.lo.eq(t.lo)))


def _merge_tails(tails: tuple[TailTerm, ...]) -> tuple[TailTerm, ...]:
    """Normalize a band list: merge equal supports, rewrite range differences.

    Two bands with the same rule, the same lower bound, opposite weights and
    different upper bounds are the classic "difference of two truncations";
    they collapse into one band over the moving range between the bounds,
    which is what lets the classifier see that the difference has no standard
    coefficients left.
    """
    out: list[TailTerm] = []
    for t in tails:
        for k, u in enumerate(out):
            if _same_rule_and_lo(u, t) and u.hi.eq(t.hi):
                out[k] = u.replace(psi_re=u.psi_re + t.psi_re, psi_im=u.psi_im + t.psi_im)
                break
        else:
            out.append(t)
    out = [t for t in out if not (t.psi_re.is_zero() and t.psi_im.is_zero())]
    # range-difference rewrite, one pair at a time; bounds whose order flips at
    # small indices keep both bands
    while True:
        pair = next(((u, t) for u, t in itertools.combinations(out, 2)
                     if _same_rule_and_lo(u, t) and not u.hi.eq(t.hi)
                     and u.psi_re.eq(-t.psi_re) and u.psi_im.eq(-t.psi_im)
                     and (_hn_le_everywhere(u.hi, t.hi) or _hn_le_everywhere(t.hi, u.hi))), None)
        if pair is None:
            return tuple(out)
        small, big = pair if _hn_le_everywhere(pair[0].hi, pair[1].hi) else pair[::-1]
        out = [x for x in out if x is not small and x is not big] + [big.replace(lo=small.hi)]


def scalar_mul(c, p: InternalPolynomial) -> InternalPolynomial:
    """``c * P``.  As :class:`StructuredPoly` leaves out a coefficient with no
    value, a lazy product leaves out its terms where ``c`` has no value: its row
    and its coefficients read 0 there."""
    c = hc_coerce(c)
    if isinstance(p, StructuredPoly) and c.symbolic and c.until <= 1:
        explicit = {k: c * v for k, v in p.explicit.items()}
        tails = tuple(t.replace(psi_re=c.re * t.psi_re - c.im * t.psi_im,
                                psi_im=c.re * t.psi_im + c.im * t.psi_re) for t in p.tails)
        tops = tuple(TopTerm(t.degree, c * t.coeff) for t in p.tops)
        return StructuredPoly(p.n, p.degree, explicit, tails, tops)

    def value(i, c=c):
        try:
            return c.value_exact(i)
        except ZeroDivisionError:
            return _ZERO
    # read through value, which runs below the first index from which c's
    # expressions always have a value
    fronts = [e.defined_from() for e in (c.re, c.im)] if c.symbolic else [None]
    c = HyperComplex(gen=value) if None in fronts else HyperComplex(
        c.re, c.im, max(c.until, *fronts), value)

    def fn(i):
        _, a, b, d = part((), c.value_exact(i))
        return [(nu, re * a - im * b, re * b + im * a, den * d)
                for nu, re, im, den in parts_of_row(p.row(i))]

    return LazyPoly(p.n, p.degree, fn, coeff_fn=lambda nu, _: c * p.coeff(nu))


def poly_mul(p: InternalPolynomial, q: InternalPolynomial) -> InternalPolynomial:
    if isinstance(p, StructuredPoly) and isinstance(q, StructuredPoly):
        # fully explicit products stay explicit; otherwise keep a lazy node
        if not p.tails and not p.tops and not q.tails and not q.tops:
            explicit = add_terms({}, times_terms(p.explicit.items(), q.explicit.items()))
            return StructuredPoly(p.n, p.degree + q.degree, explicit)
        if not q.tails and not q.tops and len(q.explicit) <= 4:
            return _tail_times_explicit(p, q)
        if not p.tails and not p.tops and len(p.explicit) <= 4:
            return _tail_times_explicit(q, p)
    return ProductPoly(p, q)


def _tail_times_explicit(p: StructuredPoly, q: StructuredPoly) -> InternalPolynomial:
    """Structured product of a banded polynomial with a short explicit one.

    Univariate only (band shifts need the exponent, not just the total
    degree); falls back to a lazy product elsewhere.
    """
    if p.n != 1:
        return ProductPoly(p, q)
    total: InternalPolynomial = poly_mul(
        StructuredPoly(1, p.degree, p.explicit), q
    ) if p.explicit else zero_poly(1)
    for (k,), c in q.explicit.items():
        shifted_tails = []
        for t in p.tails:
            # (c X^k) * sum phi(m) eps^m psi X^m = sum phi'(m) eps^m psi' X^m
            # with phi'(m) = phi(m-k) * eps^(-k)-free rescaling folded into psi
            period = len(t.phi)
            new_phi = tuple(
                t.phi[(r - k) % period].subst_affine(1, -k) for r in range(period)
            )
            # a'(m) = c * a(m-k) = phi(m-k) * eps^m * (c * psi / eps^k)
            psi_re = (c.re * t.psi_re - c.im * t.psi_im) / t.eps**k
            psi_im = (c.re * t.psi_im + c.im * t.psi_re) / t.eps**k
            lo = t.lo + k if t.lo is not None else HyperNatural.constant(k - 1) if k else None
            shifted_tails.append(TailTerm(new_phi, t.eps, psi_re, psi_im, lo, t.hi + k))
        tops = tuple(TopTerm(t.degree + k, c * t.coeff) for t in p.tops)
        part = StructuredPoly(1, p.degree + k, tails=tuple(shifted_tails), tops=tops)
        total = poly_add(total, part)
    return total


def add_terms(out: dict, terms) -> dict:
    """Add each ``(nu, c)`` of ``terms`` into the table ``out``, in order: ``out[nu] + c``
    where ``nu`` is a key, else ``c`` in a new last place.  Returns ``out``."""
    for nu, c in terms:
        out[nu] = out[nu] + c if nu in out else c
    return out


def times_terms(a, b) -> Iterator[tuple[MultiIndex, object]]:
    """``(nu + mu, c * d)`` for each ``(nu, c)`` of ``a`` and ``(mu, d)`` of ``b``, in
    nested-loop order with ``a`` outer."""
    return ((tuple(map(add, nu, mu)), c * d) for (nu, c), (mu, d) in itertools.product(a, b))


def expand(terms, xs: list, zero):
    """``zero`` plus, for each ``(nu, c)`` of ``terms`` in order, ``c`` times each
    ``xs[v]``, ``nu[v]`` times: a monomial expansion in the ring's own ``*`` and
    ``+``, for ring elements ``c`` and ``xs``."""
    total = zero
    for nu, term in terms:
        for var, k in enumerate(nu):
            for _ in range(k):
                term = term * xs[var]
        total = total + term
    return total


def poly_compose(outer: InternalPolynomial, inners: list[InternalPolynomial]) -> InternalPolynomial:
    """outer(Q_1, ..., Q_n); the outer polynomial must have finite degree."""
    if len(inners) != outer.n:
        raise ValueError(
            f"compose needs {outer.n} inner polynomials, got {len(inners)}"
        )
    if outer.degree.infinite:
        raise ValueError("composition with a hyperfinite-degree outer polynomial")
    if not isinstance(outer, StructuredPoly) or outer.tails or outer.tops:
        raise ValueError("outer polynomial must be explicit")
    n_inner = inners[0].n
    if any(q.n != n_inner for q in inners):
        raise ValueError("inner polynomials must share a variable count")
    return expand(((nu, constant(n_inner, c)) for nu, c in outer.explicit.items()),
                  inners, zero_poly(n_inner))


def poly_eval(p: InternalPolynomial, point: list) -> HyperComplex:
    """Evaluate at a vector of hypercomplex numbers.

    Fully explicit data at a symbolic point evaluates symbolically (the
    result is again growth-classifiable); anything else becomes a generator
    of the exact values ``P_i(x_i)``, read through :meth:`eval_exact`.
    """
    point = [hc_coerce(x) for x in point]
    if len(point) != p.n:
        raise ValueError(f"point has arity {len(point)}, polynomial has {p.n}")
    if (
        isinstance(p, StructuredPoly)
        and not p.tails
        and not p.tops
        and all(x.symbolic for x in point)
    ):
        return expand(p.explicit.items(), point, HyperComplex.from_rational(0))

    return HyperComplex(gen=lambda i: p.eval_exact(i, tuple(x.value_exact(i) for x in point)))


def partial_derivative(p: InternalPolynomial, alpha: MultiIndex) -> InternalPolynomial:
    """Formal partial derivative, applied at every index."""
    alpha = tuple(alpha)
    if len(alpha) != p.n:
        raise ValueError("derivative multi-index arity mismatch")
    out = p
    for var, k in enumerate(alpha):
        for _ in range(k):
            out = _derive_once(out, var)
    return out


def _derive_once(p: InternalPolynomial, var: int) -> InternalPolynomial:
    if isinstance(p, StructuredPoly):
        explicit = add_terms({}, ((tuple(v - 1 if t == var else v for t, v in enumerate(nu)),
                                   c * nu[var]) for nu, c in p.explicit.items() if nu[var]))
        tails = []
        for t in p.tails:
            if p.n != 1:
                return _lazy_derivative(p, var)
            period = len(t.phi)
            m_expr = IndexExpr.index()
            new_phi = tuple(
                t.phi[(r + 1) % period].subst_affine(1, 1) * (m_expr + 1)
                for r in range(period)
            )
            lo = None if t.lo is None or (t.lo.slope, t.lo.intercept) == (0, 0) else _lowered(t.lo)
            tails.append(TailTerm(new_phi, t.eps, t.psi_re * t.eps,
                                  t.psi_im * t.eps, lo, _lowered(t.hi)))
        tops = []
        for t in p.tops:
            # c X^e -> c e X^(e-1)
            e = t.degree
            e_expr = IndexExpr.const(e.intercept) + e.slope * IndexExpr.index()
            factor = HyperComplex(e_expr, None, e.stable_from(-1),
                                  lambda i, e=e: (Q(e.value(i)), Q(0)))
            tops.append(TopTerm(_lowered(e), t.coeff * factor))
        return StructuredPoly(p.n, _lowered(p.degree), explicit, tuple(tails), tuple(tops))
    return _lazy_derivative(p, var)


def _lazy_derivative(p: InternalPolynomial, var: int) -> LazyPoly:
    def fn(i):
        return [(tuple(v - 1 if t == var else v for t, v in enumerate(nu)),
                 re * nu[var], im * nu[var], den)
                for nu, re, im, den in parts_of_row(p.row(i)) if nu[var]]

    def coeff_fn(nu, _):
        up = tuple(v + 1 if t == var else v for t, v in enumerate(nu))
        return p.coeff(up) * (nu[var] + 1)

    return LazyPoly(p.n, _lowered(p.degree), fn, coeff_fn)


def _lowered(d: HyperNatural) -> HyperNatural:
    """A degree or band bound of a derivative: ``d - 1``, each patch clipped at 0,
    and the constant 0 for a constant ``d <= 0``."""
    if (d.slope, max(d.intercept, 0)) == (0, 0):
        return HyperNatural.constant(0)
    return HyperNatural(d.slope, d.intercept - 1, tuple((i, max(0, v - 1)) for i, v in d.patches))


# ---------------------------------------------------------------------------
# the theta map: forget monomials of infinite degree
# ---------------------------------------------------------------------------

class InternalSeries:
    """Standard-indexed coefficient stream with hypercomplex coefficients."""

    def __init__(self, n: int, coeff_fn):
        self.n = n
        self._fn = coeff_fn
        self._memo: dict[MultiIndex, HyperComplex] = {}

    def coeff(self, nu: MultiIndex) -> HyperComplex:
        nu = tuple(nu)
        if nu not in self._memo:
            self._memo[nu] = self._fn(nu)
        return self._memo[nu]

    def __add__(self, other: "InternalSeries") -> "InternalSeries":
        return InternalSeries(self.n, lambda nu: self.coeff(nu) + other.coeff(nu))

    def __mul__(self, other: "InternalSeries") -> "InternalSeries":
        return InternalSeries(self.n, lambda nu: _box_convolution(self.coeff, other.coeff, nu))


def theta(p: InternalPolynomial) -> InternalSeries:
    """Restriction of the coefficient family to standard multi-indices."""
    return InternalSeries(p.n, p.coeff)


def truncate_series(coeff_rule, d: HyperNatural, n: int = 1) -> InternalPolynomial:
    """The internal polynomial sum_{|nu| <= d} c_nu X^nu, one part per coefficient.

    ``coeff_rule`` maps a multi-index to an exact coefficient pair, or to a
    rational read as a real one.
    """

    def pair(nu):
        c = coeff_rule(nu)
        return (Q(c[0]), Q(c[1])) if isinstance(c, tuple) else (Q(c), Q(0))

    def fn(i):
        return [part(nu, pair(nu))
                for m in range(0, d.value(i) + 1) for nu in multi_indices_of_degree(n, m)]

    def coeff_fn(nu, entry):
        m, c = mi_total(nu), pair(tuple(nu))
        eventual = c if d.slope > 0 or max(0, d.intercept) >= m else _ZERO
        return HyperComplex(IndexExpr.const(eventual[0]), IndexExpr.const(eventual[1]),
                            d.stable_from(m), entry)

    return LazyPoly(n, d, fn, coeff_fn)


# ---------------------------------------------------------------------------
# convenience: exp-style band constructors
# ---------------------------------------------------------------------------

def exp_tail() -> TailTerm:
    """phi(m) = 1/m!."""
    return TailTerm.from_degree_rule(1 / IndexExpr.factorial())

def geometric_tail() -> TailTerm:
    """phi(m) = 1."""
    return TailTerm.from_degree_rule(IndexExpr.const(1))

def truncated_exp(d: HyperNatural) -> StructuredPoly:
    return StructuredPoly(1, d, tails=(exp_tail(),))

def truncated_geometric(d: HyperNatural) -> StructuredPoly:
    return StructuredPoly(1, d, tails=(geometric_tail(),))


def polys_equal_at(p: InternalPolynomial, q: InternalPolynomial, indices) -> bool:
    return all(p.materialize(i) == q.materialize(i) for i in indices)
