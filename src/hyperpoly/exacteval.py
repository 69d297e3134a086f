"""Exact arithmetic on materialized polynomials.

A materialized index is a table ``{nu: (re, im)}`` of ``Fraction`` pairs.
Every exact product and evaluation of such tables happens here, on the
layout of FLINT's ``fmpq_poly``: Gaussian-integer numerators over one shared
denominator per table.  Inside, the arithmetic is on integers, with no
intermediate ``Fraction`` and no gcd per operation, and the values are
exactly those of term-by-term rational arithmetic.

* :func:`multiply` convolves two tables in the order of the nested
  term-by-term loop, so keys keep that order and zero sums stay; ``top``
  drops keys of total degree above it.
* :func:`dot` sums products of exact pairs, the same layout for one value:
  a coefficient of ``StandardPowerSeries.__mul__``, and each prefix index of
  ``interpoly._box_convolution`` (the coefficient rule of ``ProductPoly``
  and ``InternalSeries`` products).  Numeric-tier factors have no exact
  values; their products stay on ``HyperComplex`` arithmetic.
* :func:`evaluate` takes the tables of an :func:`integer_form` to one point
  written over a common denominator ``D``; scaled by ``D^(top - |nu|)``,
  every term is an integer, and each value one ``(re, im, den)`` triple.

``completion.FieldPoly.eval_at`` (over Q and F_p) sums over one denominator
too, but without :func:`evaluate`, whose dense power tables would build every
power below a sparse residue's ``X^80``.  The torus quadrature in
``classify`` samples in complex floats and stays outside.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm
from operator import add
from typing import Iterable, Optional

from .record import Record, _set


def _numerators(table: dict) -> tuple[int, list]:
    """``(den, [(nu, re_num, im_num), ...])``: ``table`` over one denominator."""
    den = lcm(*(c.denominator for pair in table.values() for c in pair))
    return den, [
        (nu, re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
        for nu, (re, im) in table.items()
    ]


def multiply(a: dict, b: dict, top: Optional[int] = None) -> dict:
    """The product of two tables, without its keys of total degree above ``top``."""
    den_a, xs = _numerators(a)
    den_b, ys = _numerators(b)
    ys = [(mu, r, s, sum(mu)) for mu, r, s in ys]
    acc_re: dict = {}
    acc_im: dict = {}
    for nu, p, q in xs:
        room = inf if top is None else top - sum(nu)
        for mu, r, s, m in ys:
            if m <= room:
                k = tuple(map(add, nu, mu))
                acc_re[k] = acc_re.get(k, 0) + p * r - q * s
                acc_im[k] = acc_im.get(k, 0) + p * s + q * r
    den = den_a * den_b
    return {k: (Fraction(re, den), Fraction(acc_im[k], den)) for k, re in acc_re.items()}


def dot(pairs: Iterable[tuple[tuple, tuple]]) -> tuple[Fraction, Fraction]:
    """The sum of ``a * b`` over ``(a, b)`` pairs of exact ``(re, im)`` values.

    The left values are written over the lcm of their denominators, the
    right ones over theirs; the sum is one Gaussian integer over the product.
    """
    pairs = list(pairs)
    den_a = lcm(*(c.denominator for a, _ in pairs for c in a))
    den_b = lcm(*(c.denominator for _, b in pairs for c in b))
    re = im = 0
    for (p, q), (r, s) in pairs:
        p = p.numerator * (den_a // p.denominator)
        q = q.numerator * (den_a // q.denominator)
        r = r.numerator * (den_b // r.denominator)
        s = s.numerator * (den_b // s.denominator)
        re += p * r - q * s
        im += p * s + q * r
    den = den_a * den_b
    return Fraction(re, den), Fraction(im, den)


class IntegerForm(Record, frozen=True):
    """Materialized indices as Gaussian-integer numerators.

    ``max_exp`` is the largest exponent of each variable and ``top`` the
    largest total degree over all indices; they size the power tables.
    ``indices`` holds one ``(den, top, terms)`` per materialized index: the
    lcm of its coefficient denominators, its largest total degree, and one
    ``(factors, re_num, im_num, top - |nu|)`` per monomial, where ``factors``
    lists ``(variable, exponent)`` for the nonzero exponents of ``nu``.
    """

    __slots__ = ("max_exp", "top", "indices")
    def __init__(self, max_exp: tuple[int, ...], top: int,
                 indices: tuple[tuple[int, int, tuple], ...]):
        _set(self, "max_exp", max_exp)
        _set(self, "top", top)
        _set(self, "indices", indices)


def integer_form(mats: Iterable[dict], n: int) -> IntegerForm:
    """Convert materialized ``{nu: (re, im)}`` dicts of arity ``n``."""
    max_exp = [0] * n
    top_all = 0
    indices = []
    for mat in mats:
        den, nums = _numerators(mat)
        top = max(map(sum, mat), default=0)
        terms = []
        for nu, re, im in nums:
            for var, e in enumerate(nu):
                if e > max_exp[var]:
                    max_exp[var] = e
            terms.append((tuple((var, e) for var, e in enumerate(nu) if e), re, im, top - sum(nu)))
        top_all = max(top_all, top)
        indices.append((den, top, tuple(terms)))
    return IntegerForm(tuple(max_exp), top_all, tuple(indices))


def evaluate(form: IntegerForm, point: tuple) -> list[tuple[int, int, int]]:
    """``(re_num, im_num, den)`` of the value at ``point``, per index of ``form``.

    ``point`` gives one exact ``(re, im)`` pair per variable.  Coordinate
    powers and powers of the common denominator are built once and shared by
    every index.
    """
    if len(point) != len(form.max_exp):
        raise ValueError(
            f"point has arity {len(point)}, polynomial has {len(form.max_exp)}"
        )
    D, coords = _numerators(dict(enumerate(point)))
    tables = []
    for (_, c, d), k in zip(coords, form.max_exp):
        tbl = [(1, 0)]
        for _ in range(k):
            a, b = tbl[-1]
            tbl.append((a * c - b * d, a * d + b * c))
        tables.append(tbl)
    dpow = [1]
    for _ in range(form.top):
        dpow.append(dpow[-1] * D)
    out = []
    for den, top, terms in form.indices:
        sum_re = sum_im = 0
        for factors, a, b, s in terms:
            for var, e in factors:
                c, d = tables[var][e]
                a, b = a * c - b * d, a * d + b * c
            if s:
                a, b = a * dpow[s], b * dpow[s]
            sum_re += a
            sum_im += b
        out.append((sum_re, sum_im, den * dpow[top]))
    return out
