"""Exact evaluation of materialized polynomials over Gaussian integers.

A materialized index ``{nu: (re, im)}`` is stored as Gaussian-integer
numerators over one shared denominator, the layout of FLINT's ``fmpq_poly``.
A point's coordinates are written over one common denominator ``D``, so once
each term is scaled by ``D^(top - |nu|)`` the whole sum is an integer
computation: no intermediate ``Fraction``, no gcd per operation.  The result
at each index is ``(re_num, im_num, den)`` and the caller builds one
``Fraction`` from it; the values are exactly those of term-by-term rational
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable


@dataclass(frozen=True)
class IntegerForm:
    """Materialized indices as Gaussian-integer numerators.

    ``max_exp`` is the largest exponent of each variable and ``top`` the
    largest total degree over all indices; they size the power tables.
    ``indices`` holds one ``(den, top, terms)`` per materialized index: the
    lcm of its coefficient denominators, its largest total degree, and one
    ``(factors, re_num, im_num, top - |nu|)`` per monomial, where ``factors``
    lists ``(variable, exponent)`` for the nonzero exponents of ``nu``.
    """

    max_exp: tuple[int, ...]
    top: int
    indices: tuple[tuple[int, int, tuple], ...]


def integer_form(mats: Iterable[dict], n: int) -> IntegerForm:
    """Convert materialized ``{nu: (re, im)}`` dicts of arity ``n``."""
    max_exp = [0] * n
    top_all = 0
    indices = []
    for mat in mats:
        den = lcm(*(c.denominator for pair in mat.values() for c in pair))
        top = max(map(sum, mat), default=0)
        terms = []
        for nu, (re, im) in mat.items():
            for var, e in enumerate(nu):
                if e > max_exp[var]:
                    max_exp[var] = e
            terms.append((
                tuple((var, e) for var, e in enumerate(nu) if e),
                re.numerator * (den // re.denominator),
                im.numerator * (den // im.denominator),
                top - sum(nu),
            ))
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
    D = lcm(*(c.denominator for pair in point for c in pair))
    tables = []
    for (re, im), k in zip(point, form.max_exp):
        c, d = re.numerator * (D // re.denominator), im.numerator * (D // im.denominator)
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

