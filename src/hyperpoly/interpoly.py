"""Internal polynomials of hyperfinite degree.

An internal polynomial is a sequence of honest polynomials ``P_i`` of degree
at most ``d_i``, presented by coefficient rules rather than materialized
lists.  Three kinds of rule coexist:

* ``explicit``: finitely many standard multi-indices with hypercomplex
  coefficients;
* ``tails``: coefficient families ``a(nu, i) = phi(|nu|) * eps(i)^|nu| * psi(i)``
  on a (possibly moving) band of total degrees - the shape every truncated
  power series takes here;
* ``tops``: univariate monomials anchored to the moving top degree,
  ``c(i) * X^(d_i - offset)``, which is how ``X^d`` with infinite ``d`` lives.

Sums, scalar multiples, derivatives and the absolute-value polynomial stay in
this structured form.  Products and homogenizations are kept as lazy nodes:
they still materialize exactly at every index and expose exact standard-index
coefficient streams, which is all the downstream maps need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .exacteval import evaluate, integer_form
from .hypernat import HyperNatural
from .hypernum import HyperComplex, coerce as hc_coerce
from .indexexpr import IndexExpr

Q = Fraction
MultiIndex = tuple[int, ...]
Pair = tuple[Fraction, Fraction]

_ZERO: Pair = (Q(0), Q(0))


def mi_total(nu: MultiIndex) -> int:
    return sum(nu)


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def mi_sub(a: MultiIndex, b: MultiIndex) -> Optional[MultiIndex]:
    out = tuple(x - y for x, y in zip(a, b))
    return out if all(c >= 0 for c in out) else None


def multi_indices_of_degree(n: int, m: int) -> Iterable[MultiIndex]:
    """All nu in N^n with |nu| = m."""
    if n == 1:
        yield (m,)
        return
    for head in range(m + 1):
        for rest in multi_indices_of_degree(n - 1, m - head):
            yield (head,) + rest


def _pair_add(a: Pair, b: Pair) -> Pair:
    return (a[0] + b[0], a[1] + b[1])


def _pair_mul(a: Pair, b: Pair) -> Pair:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@dataclass(frozen=True)
class TailTerm:
    """Coefficient band ``a(nu, i) = phi(|nu|) * eps(i)^|nu| * psi(i)``.

    ``phi`` is one expression per residue of ``|nu|`` modulo its length, each
    read as a function of the total degree m; this admits sign patterns like
    a sine series without leaving the decidable fragment.  The band covers
    ``lo < |nu| <= hi`` (``None`` bounds default to the full degree range),
    clipped to the ambient degree.
    """

    phi: tuple[IndexExpr, ...]
    eps: IndexExpr = field(default_factory=lambda: IndexExpr.const(1))
    psi_re: IndexExpr = field(default_factory=lambda: IndexExpr.const(1))
    psi_im: IndexExpr = field(default_factory=lambda: IndexExpr.const(0))
    lo: Optional[HyperNatural] = None   # exclusive lower bound on |nu|
    hi: Optional[HyperNatural] = None   # inclusive upper bound on |nu|

    @staticmethod
    def from_degree_rule(phi: IndexExpr | tuple, **kw) -> "TailTerm":
        phi_t = (phi,) if isinstance(phi, IndexExpr) else tuple(phi)
        return TailTerm(phi=phi_t, **kw)

    def phi_at(self, m: int) -> Fraction:
        return self.phi[m % len(self.phi)].eval(m)

    def value(self, m: int, i: int) -> Pair:
        f = self.phi_at(m) * self.eps.eval(i) ** m
        return (f * self.psi_re.eval(i), f * self.psi_im.eval(i))

    def values(self, degrees: range, i: int) -> Iterator[tuple[int, Pair]]:
        """``(m, value(m, i))`` for ``m`` in ``degrees``.

        ``eps`` and ``psi`` are read once, after the first ``phi`` as in
        :meth:`value`, so an empty range reads nothing and a vanishing
        denominator raises the same error.
        """
        seqs = None
        for m in degrees:
            f = self.phi_at(m)
            if seqs is None:
                seqs = self.eps.eval(i), self.psi_re.eval(i), self.psi_im.eval(i)
            eps, psi_re, psi_im = seqs
            f *= eps ** m
            yield m, (f * psi_re, f * psi_im)

    def in_range(self, m: int, i: int) -> bool:
        if self.lo is not None and m <= self.lo.value(i):
            return False
        if self.hi is not None and m > self.hi.value(i):
            return False
        return True

    def is_real(self) -> bool:
        return self.psi_im.is_zero()


@dataclass(frozen=True)
class TopTerm:
    """Univariate moving monomial ``coeff * X^(d - offset)``."""

    offset: int
    coeff: HyperComplex


class InternalPolynomial:
    """Common interface; see the concrete classes below.

    Each representation computes ``_materialize(i)`` and ``_coeff(nu)``; this
    class keeps every result for the life of the object and drops the zero
    coefficients from each materialization.
    """

    def __init__(self, n: int, degree: HyperNatural):
        self.n = n
        self.degree = degree
        self._materialized: dict[int, dict[MultiIndex, Pair]] = {}
        self._coeffs: dict[MultiIndex, HyperComplex] = {}

    def materialize(self, i: int) -> dict[MultiIndex, Pair]:
        out = self._materialized.get(i)
        if out is None:
            out = {k: v for k, v in self._materialize(i).items() if v != _ZERO}
            self._materialized[i] = out
        return out

    def coeff(self, nu: MultiIndex) -> HyperComplex:
        nu = tuple(nu)
        out = self._coeffs.get(nu)
        if out is None:
            out = self._coeffs[nu] = self._coeff(nu)
        return out

    def _materialize(self, i: int) -> dict[MultiIndex, Pair]:
        raise NotImplementedError

    def _coeff(self, nu: MultiIndex) -> HyperComplex:
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------
    def coeff_value_at(self, nu: MultiIndex, i: int) -> Pair:
        return self.materialize(i).get(tuple(nu), _ZERO)

    def eval_exact(self, i: int, point: tuple[Pair, ...]) -> Pair:
        """Exact value of ``P_i`` at a point of exact ``(re, im)`` pairs.

        The coefficients are held as Gaussian-integer numerators over one
        denominator and the point over another, so the sum is computed in
        integers and each part of the value becomes one ``Fraction``.
        """
        if len(point) != self.n:
            raise ValueError(f"point has arity {len(point)}, polynomial has {self.n}")
        ((re, im, den),) = evaluate(integer_form((self.materialize(i),), self.n), point)
        return (Q(re, den), Q(im, den))

    def __add__(self, other):
        return poly_add(self, other)

    def __sub__(self, other):
        return poly_add(self, scalar_mul(-1, other))

    def __mul__(self, other):
        return poly_mul(self, other)


class StructuredPoly(InternalPolynomial):
    """Explicit coefficients, tail bands, and top-anchored monomials."""

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
        super().__init__(n, degree)
        self.explicit = {
            tuple(k): hc_coerce(v) for k, v in (explicit or {}).items()
        }
        for k in self.explicit:
            if len(k) != n:
                raise ValueError(f"multi-index {k} has wrong arity")
        self.tails = tuple(tails)
        self.tops = tuple(tops)

    # named on this class too, so that a per-class wrapper (perfbench/tracing.py) finds them
    materialize = InternalPolynomial.materialize
    coeff = InternalPolynomial.coeff

    # -- materialization ---------------------------------------------------------
    def _materialize(self, i: int) -> dict[MultiIndex, Pair]:
        d_i = self.degree.value(i)
        out: dict[MultiIndex, Pair] = {}
        for t in self.tails:
            lo = t.lo.value(i) if t.lo is not None else -1
            hi = t.hi.value(i) if t.hi is not None else d_i
            for m, c in t.values(range(max(0, lo + 1), min(hi, d_i) + 1), i):
                if c == _ZERO:
                    continue
                for nu in multi_indices_of_degree(self.n, m):
                    out[nu] = _pair_add(out[nu], c) if nu in out else c
        for t in self.tops:
            k = d_i - t.offset
            if k >= 0:
                try:
                    out[(k,)] = _pair_add(out.get((k,), _ZERO), t.coeff.value_exact(i))
                except ZeroDivisionError:
                    pass
        for nu, c in self.explicit.items():
            if mi_total(nu) <= d_i:
                try:
                    out[nu] = _pair_add(out.get(nu, _ZERO), c.value_exact(i))
                except ZeroDivisionError:
                    pass
        return out

    # -- exact coefficient streams --------------------------------------------------
    def _stable_from(self, m: int) -> int:
        """Index from which all band/degree comparisons at level m are constant."""
        t = 1
        bounds = [self.degree] + [b for tt in self.tails for b in (tt.lo, tt.hi) if b is not None]
        for b in bounds:
            if b.patches:
                t = max(t, b.patches[-1][0] + 1)
            if b.slope > 0:
                # crossing of slope*i + intercept with m
                cross = -(-(m - b.intercept) // b.slope)  # ceil
                t = max(t, cross + 1, 1)
        for top in self.tops:
            if self.degree.slope > 0:
                num = m + top.offset - self.degree.intercept
                if num % self.degree.slope == 0:
                    t = max(t, num // self.degree.slope + 2)
        return t

    def _coeff(self, nu: MultiIndex) -> HyperComplex:
        if len(nu) != self.n:
            raise ValueError("multi-index arity mismatch")
        m = mi_total(nu)
        T = self._stable_from(m)
        if nu in self.explicit and self.explicit[nu].symbolic:
            T = max(T, max(self.explicit[nu].prefix, default=0) + 1)
        for t in self.tops:
            if t.coeff.symbolic:
                T = max(T, max(t.coeff.prefix, default=0) + 1)
        re = IndexExpr.const(0)
        im = IndexExpr.const(0)
        probe = max(T, 1)
        if self.degree.value(probe) >= m or self.degree.slope > 0:
            if nu in self.explicit:
                c = self.explicit[nu]
                re, im = re + c.re, im + c.im
            for t in self.tops:
                if self.degree.slope == 0 and self.degree.value(probe) - t.offset == m:
                    re, im = re + t.coeff.re, im + t.coeff.im
            for t in self.tails:
                if t.in_range(m, probe):
                    f = IndexExpr.const(t.phi_at(m)) * t.eps**m
                    re = re + f * t.psi_re
                    im = im + f * t.psi_im
        prefix: dict[int, Pair] = {}
        for i in range(1, T):
            prefix[i] = self.coeff_value_at(nu, i)
        return HyperComplex(re, im, prefix)

    def is_symbolic(self) -> bool:
        return all(c.symbolic for c in self.explicit.values()) and all(
            t.coeff.symbolic for t in self.tops
        )

    def coeff_value_at(self, nu: MultiIndex, i: int) -> Pair:
        # direct rule evaluation; cheaper than materializing the whole index
        nu = tuple(nu)
        m = mi_total(nu)
        d_i = self.degree.value(i)
        if m > d_i:
            return _ZERO
        total = _ZERO
        if nu in self.explicit:
            try:
                total = self.explicit[nu].value_exact(i)
            except ZeroDivisionError:
                total = _ZERO
        for t in self.tops:
            if d_i - t.offset == m:
                try:
                    total = _pair_add(total, t.coeff.value_exact(i))
                except ZeroDivisionError:
                    pass
        for t in self.tails:
            if t.in_range(m, i):
                total = _pair_add(total, t.value(m, i))
        return total


class ProductPoly(InternalPolynomial):
    """Lazy exact product; coefficient streams come from finite convolution."""

    def __init__(self, p: InternalPolynomial, q: InternalPolynomial):
        if p.n != q.n:
            raise ValueError("variable-count mismatch in product")
        super().__init__(p.n, p.degree + q.degree)
        self.p = p
        self.q = q

    coeff = InternalPolynomial.coeff  # named here for the same reason as StructuredPoly's

    def _materialize(self, i: int) -> dict[MultiIndex, Pair]:
        a = self.p.materialize(i)
        b = self.q.materialize(i)
        out: dict[MultiIndex, Pair] = {}
        for nu1, c1 in a.items():
            for nu2, c2 in b.items():
                k = mi_add(nu1, nu2)
                out[k] = _pair_add(out.get(k, _ZERO), _pair_mul(c1, c2))
        return out

    def _coeff(self, nu: MultiIndex) -> HyperComplex:
        total = HyperComplex.from_rational(0)
        for mu in itertools.product(*(range(k + 1) for k in nu)):
            rest = mi_sub(nu, mu)
            total = total + self.p.coeff(mu) * self.q.coeff(rest)
        return total


class LazyPoly(InternalPolynomial):
    """Materialization-defined polynomial (homogenization, dehomogenization)."""

    def __init__(self, n: int, degree: HyperNatural, fn, coeff_fn=None):
        super().__init__(n, degree)
        self._fn = fn
        self._coeff_fn = coeff_fn

    def _materialize(self, i: int) -> dict[MultiIndex, Pair]:
        return self._fn(i)

    def _coeff(self, nu: MultiIndex) -> HyperComplex:
        if self._coeff_fn is not None:
            return self._coeff_fn(nu)
        return HyperComplex(gen=lambda i: complex(*self.coeff_value_at(nu, i)))


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

def moving_monomial(degree: HyperNatural, coeff=1, offset: int = 0) -> StructuredPoly:
    """Univariate c * X^(d - offset)."""
    return StructuredPoly(
        1, degree, tops=(TopTerm(offset, hc_coerce(coeff)),)
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def poly_add(p: InternalPolynomial, q: InternalPolynomial) -> InternalPolynomial:
    if p.n != q.n:
        raise ValueError("variable-count mismatch in sum")
    if isinstance(p, StructuredPoly) and isinstance(q, StructuredPoly):
        explicit = dict(p.explicit)
        for k, v in q.explicit.items():
            explicit[k] = explicit[k] + v if k in explicit else v
        explicit = {k: v for k, v in explicit.items() if not v.is_zero_expr() or v.prefix}
        return StructuredPoly(
            p.n,
            p.degree.max_with(q.degree),
            explicit,
            _merge_tails(p.tails + q.tails),
            p.tops + q.tops,
        )
    deg = p.degree.max_with(q.degree)

    def fn(i):
        out = dict(p.materialize(i))
        for k, v in q.materialize(i).items():
            out[k] = _pair_add(out.get(k, _ZERO), v)
        return out

    return LazyPoly(p.n, deg, fn, coeff_fn=lambda nu: p.coeff(nu) + q.coeff(nu))


def _hn_eq(a: Optional[HyperNatural], b: Optional[HyperNatural]) -> bool:
    if (a is None) != (b is None):
        return False
    return a is None or a.eq(b)


def _hn_le_everywhere(a: HyperNatural, b: HyperNatural) -> bool:
    """a(i) <= b(i) for every i >= 1, not just eventually."""
    if a.slope > b.slope:
        return False
    hi = max([j for j, _ in a.patches + b.patches], default=0) + 2
    return all(a.value(i) <= b.value(i) for i in range(1, hi + 1))


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
            if (
                len(u.phi) == len(t.phi)
                and all(a.eq(b) for a, b in zip(u.phi, t.phi))
                and u.eps.eq(t.eps)
                and _hn_eq(u.lo, t.lo)
                and _hn_eq(u.hi, t.hi)
            ):
                out[k] = TailTerm(
                    u.phi, u.eps, u.psi_re + t.psi_re, u.psi_im + t.psi_im, u.lo, u.hi
                )
                break
        else:
            out.append(t)
    out = [t for t in out if not (t.psi_re.is_zero() and t.psi_im.is_zero())]
    # range-difference rewrite
    changed = True
    while changed:
        changed = False
        for a in range(len(out)):
            for b in range(a + 1, len(out)):
                u, t = out[a], out[b]
                if not (
                    len(u.phi) == len(t.phi)
                    and all(x.eq(y) for x, y in zip(u.phi, t.phi))
                    and u.eps.eq(t.eps)
                    and _hn_eq(u.lo, t.lo)
                    and u.hi is not None
                    and t.hi is not None
                    and not u.hi.eq(t.hi)
                    and u.psi_re.eq(-t.psi_re)
                    and u.psi_im.eq(-t.psi_im)
                ):
                    continue
                big, small = (u, t) if t.hi.le_eventually(u.hi) else (t, u)
                if not _hn_le_everywhere(small.hi, big.hi):
                    continue  # order flips at small indices; keep both bands
                merged = TailTerm(
                    big.phi, big.eps, big.psi_re, big.psi_im,
                    lo=small.hi, hi=big.hi,
                )
                out = [x for j, x in enumerate(out) if j not in (a, b)] + [merged]
                changed = True
                break
            if changed:
                break
    return tuple(out)


def scalar_mul(c, p: InternalPolynomial) -> InternalPolynomial:
    c = hc_coerce(c)
    if isinstance(p, StructuredPoly) and c.symbolic and not c.prefix:
        explicit = {k: c * v for k, v in p.explicit.items()}
        tails = []
        for t in p.tails:
            tails.append(
                TailTerm(
                    t.phi,
                    t.eps,
                    c.re * t.psi_re - c.im * t.psi_im,
                    c.re * t.psi_im + c.im * t.psi_re,
                    t.lo,
                    t.hi,
                )
            )
        tops = tuple(TopTerm(t.offset, c * t.coeff) for t in p.tops)
        return StructuredPoly(p.n, p.degree, explicit, tuple(tails), tops)

    def fn(i):
        try:
            cv = c.value_exact(i) if c.symbolic else None
        except ZeroDivisionError:
            cv = _ZERO
        if cv is None:
            z = complex(c.value(i))
            cv = (Q(z.real), Q(z.imag))
        return {k: _pair_mul(cv, v) for k, v in p.materialize(i).items()}

    return LazyPoly(p.n, p.degree, fn, coeff_fn=lambda nu: c * p.coeff(nu))


def poly_mul(p: InternalPolynomial, q: InternalPolynomial) -> InternalPolynomial:
    if isinstance(p, StructuredPoly) and isinstance(q, StructuredPoly):
        # fully explicit products stay explicit; otherwise keep a lazy node
        if not p.tails and not p.tops and not q.tails and not q.tops:
            explicit: dict[MultiIndex, HyperComplex] = {}
            for nu1, c1 in p.explicit.items():
                for nu2, c2 in q.explicit.items():
                    k = mi_add(nu1, nu2)
                    v = c1 * c2
                    explicit[k] = explicit[k] + v if k in explicit else v
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
            cre, cim = (c.re, c.im) if c.symbolic else (None, None)
            if cre is None:
                return ProductPoly(p, q)
            # a'(m) = c * a(m-k) = phi(m-k) * eps^m * (c * psi / eps^k)
            psi_re = (cre * t.psi_re - cim * t.psi_im) / t.eps**k
            psi_im = (cre * t.psi_im + cim * t.psi_re) / t.eps**k
            if t.lo is None:
                lo = HyperNatural.constant(k - 1) if k >= 1 else None
            else:
                lo = t.lo + HyperNatural.constant(k)
            hi = (t.hi if t.hi is not None else p.degree) + HyperNatural.constant(k)
            shifted_tails.append(TailTerm(new_phi, t.eps, psi_re, psi_im, lo, hi))
        tops = tuple(
            TopTerm(t.offset - k if t.offset >= k else 0, c * t.coeff) for t in p.tops
        ) if p.tops else ()
        part = StructuredPoly(
            1, p.degree + HyperNatural.constant(k), tails=tuple(shifted_tails), tops=tops
        )
        total = poly_add(total, part)
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
    total: InternalPolynomial = zero_poly(n_inner)
    for nu, c in outer.explicit.items():
        term: InternalPolynomial = constant(n_inner, c)
        for var, k in enumerate(nu):
            for _ in range(k):
                term = poly_mul(term, inners[var])
        total = poly_add(total, term)
    return total


def poly_eval(p: InternalPolynomial, point: list) -> HyperComplex:
    """Evaluate at a vector of hypercomplex numbers.

    Fully explicit symbolic data evaluates symbolically (the result is again
    growth-classifiable); anything else falls back to a generator built on the
    exact per-index materialization.
    """
    point = [hc_coerce(x) for x in point]
    if len(point) != p.n:
        raise ValueError(f"point has arity {len(point)}, polynomial has {p.n}")
    if (
        isinstance(p, StructuredPoly)
        and not p.tails
        and not p.tops
        and p.is_symbolic()
        and all(x.symbolic for x in point)
    ):
        total = HyperComplex.from_rational(0)
        for nu, c in p.explicit.items():
            term = c
            for var, k in enumerate(nu):
                for _ in range(k):
                    term = term * point[var]
            total = total + term
        return total

    def gen(i):
        pt = []
        for x in point:
            if x.symbolic:
                v = x.value_exact(i)
                pt.append(v)
            else:
                z = complex(x.value(i))
                pt.append((Q(z.real), Q(z.imag)))
        v = p.eval_exact(i, tuple(pt))
        return complex(v[0], v[1])

    return HyperComplex(gen=gen)


def abs_poly(p: InternalPolynomial) -> InternalPolynomial:
    """Coefficientwise absolute value |P|.

    Exact for real rational coefficient data: the eventual sign of each
    coefficient stream is decided symbolically and folded in, with finitely
    many leading indices patched.  Complex coefficients are rejected (their
    modulus leaves the rational fragment).
    """
    if not isinstance(p, StructuredPoly):
        raise TypeError("absolute value needs a structured polynomial")
    explicit = {}
    for nu, c in p.explicit.items():
        explicit[nu] = _abs_hc(c)
    tails = []
    for t in p.tails:
        if not t.is_real():
            raise TypeError("absolute value of complex coefficient bands is not exact")
        new_phi = tuple(_abs_expr_eventual(e) for e in t.phi)
        tails.append(
            TailTerm(new_phi, _abs_expr_eventual(t.eps), _abs_expr_eventual(t.psi_re),
                     IndexExpr.const(0), t.lo, t.hi)
        )
    tops = tuple(TopTerm(t.offset, _abs_hc(t.coeff)) for t in p.tops)
    return StructuredPoly(p.n, p.degree, explicit, tuple(tails), tops)


def _abs_hc(c: HyperComplex) -> HyperComplex:
    if not c.symbolic:
        raise TypeError("absolute value of numeric-tier coefficients is not exact")
    if not c.im.is_zero() or any(v[1] != 0 for v in c.prefix.values()):
        raise TypeError("absolute value of complex coefficients is not exact")
    re = _abs_expr_eventual(c.re)
    prefix = {i: (abs(a), Q(0)) for i, (a, _) in c.prefix.items()}
    t = c.re.eventual_nonzero_threshold()
    if t is not None:
        for i in range(1, t):
            if i not in prefix:
                try:
                    prefix[i] = (abs(c.re.eval(i)), Q(0))
                except ZeroDivisionError:
                    pass
    return HyperComplex(re, IndexExpr.const(0), prefix)


def _abs_expr_eventual(e: IndexExpr) -> IndexExpr:
    """|e| as an expression valid from the sign-stabilization point on."""
    if e.is_zero():
        return e
    g = e.growth()
    signs = []
    for parity in (0, 1):
        tag, val = g.parity[parity]
        if tag == "finite":
            signs.append(1 if val > 0 else -1)
        elif tag in ("zero",):
            signs.append(0)
        else:
            signs.append(None)
    if None in signs:
        # sign of the dominant class per parity via direct sampling fallback
        raise TypeError("coefficient sign pattern not decided; |P| not representable")
    s0, s1 = signs
    if s0 == 0 and s1 == 0:
        return _sign_adjust(e)
    if s0 == 0:
        s0 = s1
    if s1 == 0:
        s1 = s0
    if s0 == s1:
        return e if s0 > 0 else -e
    # opposite eventual signs on the two parities: fold in (+-1)^i
    half = Fraction(1, 2)
    even_ind = (IndexExpr.const(1) + IndexExpr.geometric(-1)) * half
    odd_ind = (IndexExpr.const(1) - IndexExpr.geometric(-1)) * half
    return e * (even_ind * s0 + odd_ind * s1)


def _sign_adjust(e: IndexExpr) -> IndexExpr:
    # ratio tends to zero on both parities: decide sign by the leading class
    from .indexexpr import _leading_on_parity  # noqa: PLC0415

    signs = []
    for parity in (0, 1):
        lead = _leading_on_parity(e.num, parity)
        lead_d = _leading_on_parity(e.den, parity)
        if lead is None:
            signs.append(1)
            continue
        if lead_d is None:
            raise TypeError("sign pattern undecidable (denominator parity-degenerate)")
        signs.append(1 if (lead[1] / lead_d[1]) > 0 else -1)
    s0, s1 = signs
    if s0 == s1:
        return e if s0 > 0 else -e
    half = Fraction(1, 2)
    even_ind = (IndexExpr.const(1) + IndexExpr.geometric(-1)) * half
    odd_ind = (IndexExpr.const(1) - IndexExpr.geometric(-1)) * half
    return e * (even_ind * s0 + odd_ind * s1)


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
        explicit: dict[MultiIndex, HyperComplex] = {}
        for nu, c in p.explicit.items():
            if nu[var] == 0:
                continue
            k = nu[var]
            new_nu = tuple(v - 1 if t == var else v for t, v in enumerate(nu))
            nc = c * k
            explicit[new_nu] = explicit[new_nu] + nc if new_nu in explicit else nc
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
            lo = None
            if t.lo is not None and (t.lo.slope, t.lo.intercept) != (0, 0):
                lo = HyperNatural(t.lo.slope, t.lo.intercept - 1,
                                  tuple((i, max(0, v - 1)) for i, v in t.lo.patches))
            hi = None
            if t.hi is not None:
                hi = HyperNatural(t.hi.slope, t.hi.intercept - 1,
                                  tuple((i, max(0, v - 1)) for i, v in t.hi.patches))
            tails.append(TailTerm(new_phi, t.eps, t.psi_re * t.eps,
                                  t.psi_im * t.eps, lo, hi))
        tops = []
        for t in p.tops:
            # c X^(d-j) -> c (d-j) X^(d-j-1)
            d_expr = IndexExpr.const(p.degree.intercept) + p.degree.slope * IndexExpr.index()
            factor = HyperComplex(
                d_expr - t.offset,
                prefix={i: (Q(v - t.offset), Q(0)) for i, v in p.degree.patches},
            )
            tops.append(TopTerm(t.offset + 1, t.coeff * factor))
        new_deg = HyperNatural(
            p.degree.slope,
            p.degree.intercept - 1,
            tuple((i, max(0, v - 1)) for i, v in p.degree.patches),
        ) if (p.degree.slope, max(p.degree.intercept, 0)) != (0, 0) else HyperNatural.constant(0)
        return StructuredPoly(p.n, new_deg, explicit, tuple(tails), tuple(tops))
    return _lazy_derivative(p, var)


def _lazy_derivative(p: InternalPolynomial, var: int) -> LazyPoly:
    def fn(i):
        out: dict[MultiIndex, Pair] = {}
        for nu, c in p.materialize(i).items():
            if nu[var] == 0:
                continue
            new_nu = tuple(v - 1 if t == var else v for t, v in enumerate(nu))
            scaled = (c[0] * nu[var], c[1] * nu[var])
            out[new_nu] = _pair_add(out.get(new_nu, _ZERO), scaled)
        return out

    def coeff_fn(nu):
        up = tuple(v + 1 if t == var else v for t, v in enumerate(nu))
        return p.coeff(up) * (nu[var] + 1)

    new_deg = HyperNatural(
        p.degree.slope,
        p.degree.intercept - 1,
        tuple((i, max(0, v - 1)) for i, v in p.degree.patches),
    ) if (p.degree.slope, max(p.degree.intercept, 0)) != (0, 0) else HyperNatural.constant(0)
    return LazyPoly(p.n, new_deg, fn, coeff_fn)


def homogenize(p: InternalPolynomial) -> InternalPolynomial:
    """Append one variable Z and send a_nu X^nu to a_nu X^nu Z^(d-|nu|)."""
    d = p.degree

    def fn(i):
        d_i = d.value(i)
        out = {}
        for nu, c in p.materialize(i).items():
            out[nu + (d_i - mi_total(nu),)] = c
        return out

    def coeff_fn(ext):
        # coefficient of X^nu Z^z is a_nu masked by the indicator of d_i = |nu|+z
        nu, z = tuple(ext[:-1]), ext[-1]
        base = p.coeff(nu)
        if not base.symbolic:
            return HyperComplex(
                gen=lambda i: base.value(i) if d.value(i) == mi_total(nu) + z else 0j
            )
        m = mi_total(nu) + z
        eventual_hit = d.slope == 0 and max(0, d.intercept) == m
        special = {i for i, _ in d.patches}
        if d.slope > 0:
            num = m - d.intercept
            if num % d.slope == 0 and num // d.slope >= 1:
                special.add(num // d.slope)
        prefix = {}
        for i in sorted(special):
            hit = d.value(i) == m
            if hit == eventual_hit and hit:
                continue  # agrees with the eventual expression
            try:
                prefix[i] = base.value_exact(i) if hit else _ZERO
            except ZeroDivisionError:
                prefix[i] = _ZERO
        if eventual_hit:
            return HyperComplex(base.re, base.im, {**base.prefix, **prefix})
        return HyperComplex(IndexExpr.const(0), IndexExpr.const(0), prefix)

    return LazyPoly(p.n + 1, d, fn, coeff_fn)


def dehomogenize(p: InternalPolynomial) -> InternalPolynomial:
    """Substitute 1 for the last variable."""

    def fn(i):
        out: dict[MultiIndex, Pair] = {}
        for nu, c in p.materialize(i).items():
            base = tuple(nu[:-1])
            out[base] = _pair_add(out.get(base, _ZERO), c)
        return out

    return LazyPoly(p.n - 1, p.degree, fn)


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
        def conv(nu):
            total = HyperComplex.from_rational(0)
            for mu in itertools.product(*(range(k + 1) for k in nu)):
                total = total + self.coeff(mu) * other.coeff(mi_sub(nu, mu))
            return total

        return InternalSeries(self.n, conv)


def theta(p: InternalPolynomial) -> InternalSeries:
    """Restriction of the coefficient family to standard multi-indices."""
    return InternalSeries(p.n, p.coeff)


def truncate_series(coeff_rule, d: HyperNatural, n: int = 1,
                    tail: Optional[TailTerm] = None) -> InternalPolynomial:
    """The internal polynomial sum_{|nu| <= d} c_nu X^nu.

    ``coeff_rule`` maps a multi-index to an exact coefficient pair; when the
    rule is also available in band form, pass it as ``tail`` so the result
    stays classifiable.  Without a band the result is materialization-backed.
    """
    if tail is not None:
        return StructuredPoly(n, d, tails=(tail,))

    def fn(i):
        out = {}
        for m in range(0, d.value(i) + 1):
            for nu in multi_indices_of_degree(n, m):
                c = coeff_rule(nu)
                c = (Q(c[0]), Q(c[1])) if isinstance(c, tuple) else (Q(c), Q(0))
                if c != _ZERO:
                    out[nu] = c
        return out

    def coeff_fn(nu):
        m = mi_total(nu)
        c = coeff_rule(tuple(nu))
        c = (Q(c[0]), Q(c[1])) if isinstance(c, tuple) else (Q(c), Q(0))
        eventual = max(0, d.intercept) >= m if d.slope == 0 else True
        if not eventual:
            prefix = {}
            for i, v in d.patches:
                if v >= m:
                    prefix[i] = c
            return HyperComplex(IndexExpr.const(0), IndexExpr.const(0), prefix)
        t_ok = 1
        while d.value(t_ok) < m:
            t_ok += 1
        prefix = {i: _ZERO for i in range(1, t_ok)}
        for i, v in d.patches:
            if v < m:
                prefix[i] = _ZERO
        return HyperComplex(IndexExpr.const(c[0]), IndexExpr.const(c[1]), prefix)

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
