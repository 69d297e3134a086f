"""Exact arithmetic on integer rows.

Each index of an internal polynomial is stored as a *row*, in the layout of
FLINT's ``fmpq_poly``: a tuple ``(den, top, max_exp, terms)`` of one common
denominator (not necessarily the least), the largest total degree, the
largest exponent of each variable, and one ``(nu, factors, re, im, top - |nu|)``
per nonzero coefficient ``(re + i im) / den``, where ``factors`` lists the
nonzero ``(variable, exponent)`` of ``nu``.  Its ``Fraction`` view is the table
``{nu: (re, im)}`` (:func:`fraction_table`).  Rows are the exact input and
output of this module: sums, scalings, products and evaluations run on the
integers, with no gcd per operation, and give exactly the values of
term-by-term rational arithmetic.

* A *part* ``(nu, re, im, den)`` is one value ``(re + i im) / den`` at ``nu``:
  :func:`part` writes an exact pair as one, :func:`parts_of_row` reads a row
  back as parts, and :func:`row_of_parts` sums parts over one lcm.
* :func:`multiply_rows` convolves two rows in the order of the nested
  term-by-term loop and drops the zero sums.
* :func:`dot` sums products of exact pairs over one denominator: a coefficient
  of ``StandardPowerSeries.__mul__``, and the value of an
  ``interpoly._box_convolution`` coefficient at an index below its ``until``.
* :func:`evaluate` takes rows to one point over a common denominator ``D``;
  scaled by ``D^(top - |nu|)``, every term is an integer, and each value one
  ``(re, im, den)`` triple.

``completion.FieldPoly.eval_at`` sums over one denominator too, but without
dense power tables; the torus quadrature in ``classify`` samples in floats.

Finite ``{nu: coefficient}`` tables in any ring are summed and multiplied by
``interpoly.add_terms`` and ``interpoly.times_terms``.  Rows keep
:func:`row_of_parts` and :func:`multiply_rows`, which add Gaussian-integer
numerators over one denominator: the ring-generic kernels would add one
``Fraction`` per term on the oracle's and the standard parts' hot path.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Sequence


Row = tuple  # (den, top, max_exp, terms), see the module docstring


def fraction_table(row: Row) -> dict:
    """The ``Fraction`` view ``{nu: (re, im)}`` of a row, keys in row order."""
    den = row[0]
    return {nu: (Fraction(re, den), Fraction(im, den)) for nu, _, re, im, _ in row[3]}


def _build_row(den: int, sums: Iterable[tuple], n: int) -> Row:
    """The row of ``(nu, re, im)`` numerators over ``den``, zeros dropped."""
    kept = [(nu, re, im, sum(nu)) for nu, re, im in sums if re or im]
    top = max((m for *_, m in kept), default=0)
    max_exp = [0] * n
    terms = []
    for nu, re, im, m in kept:
        for var, e in enumerate(nu):
            if e > max_exp[var]:
                max_exp[var] = e
        terms.append((nu, tuple((var, e) for var, e in enumerate(nu) if e), re, im, top - m))
    return den, top, tuple(max_exp), tuple(terms)


def part(nu: tuple, pair: tuple) -> tuple:
    """The part ``(nu, re, im, den)`` of an exact pair ``(re, im)`` at ``nu``."""
    re, im = pair
    return (nu, re.numerator * im.denominator, im.numerator * re.denominator,
            re.denominator * im.denominator)


def parts_of_row(row: Row) -> list[tuple]:
    """The terms of a row as ``(nu, re, im, den)`` parts, in row order."""
    den = row[0]
    return [(nu, re, im, den) for nu, _, re, im, _ in row[3]]


def row_of_parts(parts: list[tuple], n: int) -> Row:
    """The row of ``(nu, re, im, den)`` parts, each ``(re + i im) / den``; the parts
    at one ``nu`` add up, in the place of its first part."""
    den = lcm(*{part[3] for part in parts})
    acc: dict = {}
    for nu, re, im, d in parts:
        k = den // d
        if nu in acc:
            a, b = acc[nu]
            acc[nu] = (a + re * k, b + im * k)
        else:
            acc[nu] = (re * k, im * k)
    return _build_row(den, [(nu, a, b) for nu, (a, b) in acc.items()], n)


def _numerators(table: dict) -> tuple[int, list]:
    """``(den, [(nu, re_num, im_num), ...])``: ``table`` over one denominator."""
    den = lcm(*(c.denominator for pair in table.values() for c in pair))
    return den, [
        (nu, re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
        for nu, (re, im) in table.items()
    ]


def multiply_rows(a: Row, b: Row) -> Row:
    """The product of two rows of one arity: ``(p + iq)(r + is)`` summed over
    their terms, keyed by ``nu + mu`` in nested-loop order."""
    ys = [(mu, r, s) for mu, _, r, s, _ in b[3]]
    acc_re: dict = {}
    acc_im: dict = {}
    for nu, _, p, q, _ in a[3]:
        for mu, r, s in ys:
            k = tuple(map(add, nu, mu))
            acc_re[k] = acc_re.get(k, 0) + p * r - q * s
            acc_im[k] = acc_im.get(k, 0) + p * s + q * r
    return _build_row(a[0] * b[0], [(k, re, acc_im[k]) for k, re in acc_re.items()], len(a[2]))


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


def evaluate(rows: Sequence[Row], point: tuple) -> list[tuple[int, int, int]]:
    """``(re_num, im_num, den)`` of the value at ``point``, per row.

    ``point`` gives one exact ``(re, im)`` pair per variable.  Coordinate
    powers, up to each variable's largest exponent over the rows, and powers
    of the common denominator, up to their largest top degree, are built once
    and shared by every row.
    """
    for row in rows:
        if len(row[2]) != len(point):
            raise ValueError(f"point has arity {len(point)}, polynomial has {len(row[2])}")
    max_exp = map(max, zip((0,) * len(point), *(row[2] for row in rows)))
    D, coords = _numerators(dict(enumerate(point)))
    tables = []
    for (_, c, d), k in zip(coords, max_exp):
        tbl = [(1, 0)]
        for _ in range(k):
            a, b = tbl[-1]
            tbl.append((a * c - b * d, a * d + b * c))
        tables.append(tbl)
    dpow = [1]
    for _ in range(max((row[1] for row in rows), default=0)):
        dpow.append(dpow[-1] * D)
    out = []
    for den, top, _, terms in rows:
        sum_re = sum_im = 0
        for _, factors, a, b, s in terms:
            for var, e in factors:
                c, d = tables[var][e]
                a, b = a * c - b * d, a * d + b * c
            if s:
                a, b = a * dpow[s], b * dpow[s]
            sum_re += a
            sum_im += b
        out.append((sum_re, sum_im, den * dpow[top]))
    return out
