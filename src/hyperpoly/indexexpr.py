"""Exact arithmetic and growth analysis for index sequences.

An :class:`IndexExpr` denotes a map ``i -> Q`` built from rational constants,
the index ``i`` itself, field operations, integer powers, ``i!`` and ``c^i``
for rational ``c``, plus composition with affine reindexings.  The fragment is
chosen so that two things are simultaneously possible:

* exact evaluation at every index (``fractions.Fraction``, no floats), and
* a decision procedure for the asymptotic magnitude class of the sequence.

Internally an expression is a quotient ``num/den`` of canonical forms.  A
canonical form is a finite sum of *scale monomials*

    coeff * c^i * (i!)^k * i^p        (c nonzero rational, k, p naturals)

and distinct monomials are linearly independent as functions of ``i``, so the
zero test is syntactic.  Growth comparison of monomials is lexicographic in
(factorial exponent, |geometric base|, power exponent); sign oscillation from
negative bases is tracked per parity of ``i``.

A form holds its coefficients as integers over one positive denominator:
``(terms, den)`` with ``terms`` a dict from the key ``(k, c, p)`` to a nonzero
``int`` and ``gcd(den, *terms.values()) == 1``, so each form has one
representation and arithmetic on forms is integer arithmetic.  The base ``c``
of a key is an ``int`` when it is integral and otherwise a ``(num, den)`` pair
in lowest terms with ``den > 1``, so keys hash and multiply without
``Fraction`` arithmetic.  Evaluation sums one integer numerator over one
integer denominator and computes ``i!`` only for a form with a factorial term.
Growth-class keys carry ``|c|`` as an ``int`` or a ``Fraction``, so they
compare and print as numbers.

Forms and expressions are never mutated once built, so operations may return
an operand unchanged.  An expression's identities are the exact zero (empty
numerator over ``ONE_FORM``) for ``+`` and the exact one (``ONE_FORM`` over
``ONE_FORM``) for ``*``: there the general rule would build forms equal term
for term to the other operand's, so only object identity differs, and the
operand keeps its memoized growth and values.  A zero over another
denominator, such as ``0/i`` or ``0/(i-3)``, is not an identity: it is
undefined where that denominator vanishes, and a sum or product with it keeps
those poles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from .record import Record, _set

Q = Fraction

# a geometric base: an int when integral, else a (num, den) pair in lowest
# terms with den > 1
Base = Union[int, tuple[int, int]]
# a scale monomial key: (factorial exponent, geometric base, power of i)
Key = tuple[int, Base, int]
# canonical form: (key -> nonzero int coefficient, positive common denominator)
# in lowest terms; a form is never mutated once built, so operations may
# return an operand unchanged
Form = tuple[dict[Key, int], int]

ONE_KEY: Key = (0, 1, 0)
ZERO_FORM: Form = ({}, 1)
ONE_FORM: Form = ({ONE_KEY: 1}, 1)


class FragmentError(ValueError):
    """Requested operation leaves the decidable sequence fragment."""


def _base(c: Fraction) -> Base:
    return c.numerator if c.denominator == 1 else (c.numerator, c.denominator)


def _base_value(b: Base) -> Fraction:
    return Q(b) if type(b) is int else Q(*b)


def _base_mul(b1: Base, b2: Base) -> Base:
    if type(b1) is int and type(b2) is int:
        return b1 * b2
    n1, d1 = (b1, 1) if type(b1) is int else b1
    n2, d2 = (b2, 1) if type(b2) is int else b2
    n, d = n1 * n2, d1 * d2
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return n if d == 1 else (n, d)


def _base_pow(b: Base, e: int) -> Base:
    """b^e for e >= 1 (powers of a reduced pair stay reduced)."""
    return b**e if type(b) is int else (b[0] ** e, b[1] ** e)


def _reduced(terms: dict[Key, int], den: int) -> Form:
    """The form terms/den in lowest terms; den > 0."""
    if not terms:
        return ZERO_FORM
    if den == 1:
        return (terms, 1)
    g = math.gcd(den, *terms.values())
    if g == 1:
        return (terms, den)
    return ({k: c // g for k, c in terms.items()}, den // g)


def _f_of(coeffs: dict[Key, Fraction]) -> Form:
    """The form with these rational coefficients (zeros dropped)."""
    coeffs = {k: Q(c) for k, c in coeffs.items() if c}
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return ({k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, den)


def _f_const(q) -> Form:
    q = Q(q)
    return ({ONE_KEY: q.numerator}, q.denominator) if q else ZERO_FORM


def _f_add(a: Form, b: Form) -> Form:
    (ta, da), (tb, db) = a, b
    if not ta:
        return b
    if not tb:
        return a
    if da == db:
        out, den, sb = dict(ta), da, 1
    else:
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        out, den = {k: c * sa for k, c in ta.items()}, da * sa
    for k, c in tb.items():
        c *= sb
        s = out.get(k)
        if s is None:
            out[k] = c
        elif s + c:
            out[k] = s + c
        else:
            del out[k]
    return _reduced(out, den)


def _f_neg(a: Form) -> Form:
    return ({k: -c for k, c in a[0].items()}, a[1])


def _f_mul(a: Form, b: Form) -> Form:
    (ta, da), (tb, db) = a, b
    if not ta or not tb:
        return ZERO_FORM
    for (t, d), f in ((a, b), (b, a)):
        if len(t) == 1 and ONE_KEY in t:
            # a constant operand scales the other
            c = t[ONE_KEY]
            if c == 1 and d == 1:
                return f
            return _reduced({k: c * q for k, q in f[0].items()}, d * f[1])
    out: dict[Key, int] = {}
    merged = False
    for (k1, b1, p1), q1 in ta.items():
        for (k2, b2, p2), q2 in tb.items():
            base = b2 if b1 == 1 else b1 if b2 == 1 else _base_mul(b1, b2)
            key = (k1 + k2, base, p1 + p2)
            s = out.get(key)
            if s is None:
                out[key] = q1 * q2
            else:
                out[key] = s + q1 * q2
                merged = True
    if merged:
        out = {k: q for k, q in out.items() if q}
    return _reduced(out, da * db)


def _f_eval(a: Form, i: int) -> tuple[int, int]:
    """a(i) as one integer numerator over one positive integer denominator;
    i >= 0."""
    num, den = 0, 1
    fact = None
    for (k, b, p), n in a[0].items():
        d = 1
        if type(b) is int:
            if b != 1:
                n *= b**i
        else:
            n *= b[0] ** i
            d = b[1] ** i
        if k:
            if fact is None:
                fact = math.factorial(i)
            n *= fact**k
        if p:
            n *= i**p
        if d == den:
            num += n
        else:
            num, den = num * d + n * den, den * d
    return num, den * a[1]


def _f_poly_in_i(coeffs: list[Fraction]) -> Form:
    """coeffs[j] is the coefficient of i^j."""
    return _f_of({(0, 1, j): c for j, c in enumerate(coeffs)})


# ---------------------------------------------------------------------------
# growth classes
# ---------------------------------------------------------------------------

# class key: (factorial exponent, |geometric base|, power of i); lex order is
# the eventual-dominance order between scale monomials.  The base is an int
# when integral, else a Fraction, so keys compare and print as numbers.
ClassKey = tuple[int, Union[int, Fraction], int]
UNIT_CLASS: ClassKey = (0, 1, 0)


def _classes(a: Form) -> dict[ClassKey, tuple[int, int]]:
    """Group monomials by growth class.

    Returns class -> (A, B) where the class contributes (A + B*(-1)^i) * g(i)
    / den with g the common positive growth profile and den the form's
    denominator; B collects negative bases.
    """
    out: dict[ClassKey, tuple[int, int]] = {}
    for (k, b, p), q in a[0].items():
        if type(b) is int:
            ck, positive = (k, abs(b), p), b > 0
        else:
            ck, positive = (k, Q(abs(b[0]), b[1]), p), b[0] > 0
        A, B = out.get(ck, (0, 0))
        out[ck] = (A + q, B) if positive else (A, B + q)
    return out


def _leading_from_classes(classes: dict, parity: int) -> Optional[tuple[ClassKey, int]]:
    best: Optional[tuple[ClassKey, int]] = None
    for ck, (A, B) in classes.items():
        gamma = A - B if parity else A + B
        if gamma and (best is None or ck > best[0]):
            best = (ck, gamma)
    return best


def _class_sub(c1: ClassKey, c2: ClassKey) -> ClassKey:
    r = Q(c1[1], c2[1])
    return (c1[0] - c2[0], r.numerator if r.denominator == 1 else r, c1[2] - c2[2])


# per-parity eventual behaviour tags for a quotient num/den
ZERO = "zero"          # ratio tends to 0 (or is eventually exactly 0)
FINITE = "finite"      # ratio tends to a nonzero rational
INFINITE = "infinite"  # |ratio| tends to infinity
UNDEF = "undef"        # denominator vanishes identically on the parity


def _parity_behavior_from(
    num_classes: dict, den_classes: dict, parity: int, dens: tuple[int, int]
) -> tuple[str, Optional[Fraction]]:
    """Tag and limit of num/den on one parity; ``dens`` are the denominators
    of the two forms, which scale their class coefficients."""
    dl = _leading_from_classes(den_classes, parity)
    if dl is None:
        return (UNDEF, None)
    nl = _leading_from_classes(num_classes, parity)
    if nl is None:
        return (ZERO, Q(0))
    (ck_n, g_n), (ck_d, g_d) = nl, dl
    if ck_n < ck_d:
        return (ZERO, Q(0))
    if ck_n > ck_d:
        return (INFINITE, None)
    return (FINITE, Q(g_n * dens[1], g_d * dens[0]))


class SeqGrowth(Record, frozen=True):
    """Eventual behaviour of a real-valued sequence in the fragment.

    kind: 'zero' | 'finite' | 'infinite' | 'mixed' | 'undef'
    limit: the rational limit when the two parity behaviours agree, else None.
    parity: the raw ((tag, value), (tag, value)) pair for even/odd indices.
    """

    __slots__ = ("kind", "limit", "parity")
    def __init__(self, kind: str, limit: Optional[Fraction], parity: tuple):
        _set(self, "kind", kind)
        _set(self, "limit", limit)
        _set(self, "parity", parity)


def quotient_growth(num: Form, den: Form) -> SeqGrowth:
    num_classes = _classes(num)
    den_classes = _classes(den)
    dens = (num[1], den[1])
    b0 = _parity_behavior_from(num_classes, den_classes, 0, dens)
    b1 = _parity_behavior_from(num_classes, den_classes, 1, dens)
    tags = (b0[0], b1[0])
    if UNDEF in tags:
        return SeqGrowth("undef", None, (b0, b1))
    if tags == (ZERO, ZERO):
        return SeqGrowth("zero", Q(0), (b0, b1))
    if tags == (INFINITE, INFINITE):
        return SeqGrowth("infinite", None, (b0, b1))
    if tags == (FINITE, FINITE):
        limit = b0[1] if b0[1] == b1[1] else None
        return SeqGrowth("finite", limit, (b0, b1))
    if INFINITE in tags:
        return SeqGrowth("mixed", None, (b0, b1))
    # one parity tends to zero, the other to a nonzero value: bounded, no limit
    return SeqGrowth("finite-or-zero", None, (b0, b1))


# ---------------------------------------------------------------------------
# the public expression type
# ---------------------------------------------------------------------------

def class_key_of_square(sq: "IndexExpr") -> Optional[ClassKey]:
    """Growth-class key of a nonnegative expression given as a square.

    For ``sq = e*e`` (or ``|e|^2``) this is the class of ``|e|^2``.  Keys add
    under multiplication and compare lexicographically, with the unit class
    (0, 1, 0) marking "appreciable".  None is returned when ``sq`` is zero or
    when its two parity subsequences lead with different classes.
    """
    if sq.is_zero():
        return None
    keys = []
    for form in (sq.num, sq.den):
        classes = _classes(form)
        l0 = _leading_from_classes(classes, 0)
        l1 = _leading_from_classes(classes, 1)
        if l0 is None or l1 is None or l0[0] != l1[0]:
            return None
        keys.append(l0[0])
    return _class_sub(keys[0], keys[1])


class IndexExpr:
    """A sequence i -> Q in the decidable fragment, as a quotient of forms."""

    __slots__ = ("num", "den", "_growth", "_evals")

    def __init__(self, num: Form, den: Form):
        if not den[0]:
            raise ZeroDivisionError("IndexExpr with identically zero denominator")
        self.num = num
        self.den = den
        self._growth: Optional[SeqGrowth] = None
        self._evals: dict[int, Fraction] = {}

    # -- constructors -------------------------------------------------------
    @staticmethod
    def const(q) -> "IndexExpr":
        return IndexExpr(_f_const(q), ONE_FORM)

    @staticmethod
    def index() -> "IndexExpr":
        return IndexExpr(({(0, 1, 1): 1}, 1), ONE_FORM)

    @staticmethod
    def factorial() -> "IndexExpr":
        return IndexExpr(({(1, 1, 0): 1}, 1), ONE_FORM)

    @staticmethod
    def geometric(c) -> "IndexExpr":
        c = Q(c)
        if c == 0:
            raise FragmentError("geometric base must be nonzero (0^i is not in the fragment)")
        return IndexExpr(({(0, _base(c), 0): 1}, 1), ONE_FORM)

    # -- ring/field operations ----------------------------------------------
    def __add__(self, other: "IndexExpr") -> "IndexExpr":
        other = _coerce(other)
        if not other.num[0] and other.den == ONE_FORM:
            return self
        if not self.num[0] and self.den == ONE_FORM:
            return other
        if self.den == other.den:
            return IndexExpr(_f_add(self.num, other.num), self.den)
        num = _f_add(_f_mul(self.num, other.den), _f_mul(other.num, self.den))
        return IndexExpr(num, _f_mul(self.den, other.den))

    def __radd__(self, other):
        return _coerce(other) + self

    def __neg__(self) -> "IndexExpr":
        return IndexExpr(_f_neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other) -> "IndexExpr":
        other = _coerce(other)
        if other.num == ONE_FORM and other.den == ONE_FORM:
            return self
        if self.num == ONE_FORM and self.den == ONE_FORM:
            return other
        return IndexExpr(_f_mul(self.num, other.num), _f_mul(self.den, other.den))

    def __rmul__(self, other):
        return _coerce(other) * self

    def __truediv__(self, other) -> "IndexExpr":
        other = _coerce(other)
        if not other.num[0]:
            raise ZeroDivisionError("division by the zero sequence")
        return IndexExpr(_f_mul(self.num, other.den), _f_mul(self.den, other.num))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n: int) -> "IndexExpr":
        if not isinstance(n, int):
            raise TypeError("IndexExpr powers must be integers")
        if n < 0:
            return (IndexExpr.const(1) / self) ** (-n)
        out = IndexExpr.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- composition ---------------------------------------------------------
    def subst_affine(self, scale: int, shift: int) -> "IndexExpr":
        """The sequence j -> self(scale*j + shift); scale >= 1.

        Factorial atoms only admit scale 1 (the image ``(s*i+a)!`` leaves the
        fragment otherwise); shifts expand exactly.
        """
        if scale < 1:
            raise FragmentError("affine reindexing needs scale >= 1")
        num, dnum = _subst_form(self.num, scale, shift)
        den, dden = _subst_form(self.den, scale, shift)
        return IndexExpr(_f_mul(num, dden), _f_mul(den, dnum))

    # -- evaluation and queries ----------------------------------------------
    def eval(self, i: int) -> Fraction:
        if i in self._evals:
            return self._evals[i]
        if i < 0:
            raise ValueError(f"index {i} is negative; sequences are indexed from 0")
        dn, dd = _f_eval(self.den, i)
        if dn == 0:
            raise ZeroDivisionError(f"denominator vanishes at index {i}")
        nn, nd = _f_eval(self.num, i)
        v = self._evals[i] = Q(nn * dd, nd * dn)
        return v

    def defined_from(self) -> Optional[int]:
        """An index from which the denominator never vanishes, or None when it
        vanishes on every index of a parity.  On each parity the denominator's
        leading class outweighs twice the sum of the others from the returned
        index on: there, each ratio of another class to it has stopped growing."""
        classes = _classes(self.den)
        n = 1
        for parity in (0, 1):
            lead = _leading_from_classes(classes, parity)
            if lead is None:
                return None
            (k, b, p), g = lead
            rest = [(k2 - k, math.log(Q(b2) / Q(b)), p2 - p, math.log(abs(Q(h, g))))
                    for (k2, b2, p2), (A, B) in classes.items()
                    for h in (A - B if parity else A + B,) if h and (k2, b2, p2) < lead[0]]

            def outweighs(i):
                logs = [lh + i * lb + dk * math.lgamma(i + 1) + dp * math.log(i)
                        for dk, lb, dp, lh in rest]
                return (all(lb + dk * math.log(i + 1) + max(dp, 0) * math.log1p(1 / i) <= 0
                            for dk, lb, dp, _ in rest)
                        and max(logs, default=-1) < 0 and sum(map(math.exp, logs)) < 0.5)
            while not outweighs(n):
                n *= 2
        return n

    def is_zero(self) -> bool:
        return not self.num[0]

    def constant_value(self) -> Optional[Fraction]:
        """The constant this sequence equals, or None if it varies."""
        (tn, dn), (td, dd) = self.num, self.den
        if not tn:
            return Q(0)
        if set(tn) != set(td):
            return None
        ratios = {Q(tn[k] * dd, td[k] * dn) for k in tn}
        return ratios.pop() if len(ratios) == 1 else None

    def eq(self, other: "IndexExpr") -> bool:
        other = _coerce(other)
        return not _f_add(_f_mul(self.num, other.den), _f_neg(_f_mul(other.num, self.den)))[0]

    def growth(self) -> SeqGrowth:
        if self._growth is None:
            self._growth = quotient_growth(self.num, self.den)
        return self._growth

    def limit(self) -> Optional[Fraction]:
        """Exact limit when the growth analysis certifies convergence."""
        g = self.growth()
        if g.kind == "zero":
            return Q(0)
        return g.limit

    def __repr__(self):
        return f"IndexExpr({_fmt_form(self.num)} / {_fmt_form(self.den)})"


# the exact zero as one shared expression: a sum that starts from it and that
# no term reaches is this object, whose growth and values are computed once
ZERO_EXPR = IndexExpr(ZERO_FORM, ONE_FORM)


def _coerce(x) -> IndexExpr:
    if isinstance(x, IndexExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return IndexExpr.const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an IndexExpr")


def _subst_form(a: Form, scale: int, shift: int) -> tuple[Form, Form]:
    """Substitute i -> scale*i + shift; returns (num, den) of the image."""
    num_total: Form = ZERO_FORM
    den_total: Form = ONE_FORM
    for (k, b, p), q in a[0].items():
        mono_num: Form = _f_const(Q(q, a[1]))
        mono_den: Form = ONE_FORM
        if b != 1:
            # b^(scale*i+shift) = (b^scale)^i * b^shift
            power = {(0, _base_pow(b, scale), 0): _base_value(b) ** shift}
            mono_num = _f_mul(mono_num, _f_of(power))
        if p != 0:
            # (scale*i + shift)^p expanded as a polynomial in i
            coeffs = [math.comb(p, j) * scale**j * Q(shift) ** (p - j) for j in range(p + 1)]
            mono_num = _f_mul(mono_num, _f_poly_in_i(coeffs))
        if k != 0:
            if scale != 1:
                raise FragmentError("factorial under a scaled reindexing leaves the fragment")
            fact: Form = ({(k, 1, 0): 1}, 1)
            if shift >= 0:
                # (i+shift)! = i! * (i+1)...(i+shift)
                prod: Form = ONE_FORM
                for j in range(1, shift + 1):
                    prod = _f_mul(prod, _f_poly_in_i([j, 1]))
                fact = _f_mul(fact, _power_form(prod, k))
                mono_num = _f_mul(mono_num, fact)
            else:
                # (i-s)! = i! / (i (i-1) ... (i-s+1))
                prod = ONE_FORM
                for j in range(0, -shift):
                    prod = _f_mul(prod, _f_poly_in_i([-j, 1]))
                mono_num = _f_mul(mono_num, fact)
                mono_den = _f_mul(mono_den, _power_form(prod, k))
        # accumulate over the common denominator
        num_total = _f_add(_f_mul(num_total, mono_den), _f_mul(mono_num, den_total))
        den_total = _f_mul(den_total, mono_den)
    return num_total, den_total


def _power_form(a: Form, n: int) -> Form:
    out: Form = ONE_FORM
    for _ in range(n):
        out = _f_mul(out, a)
    return out


def _fmt_mono(key: Key, coeff: Fraction) -> str:
    k, b, p = key
    parts = [] if coeff == 1 and key != ONE_KEY else [str(coeff)]
    if b != 1:
        parts.append(f"({b})^i" if type(b) is int else f"({b[0]}/{b[1]})^i")
    if k == 1:
        parts.append("i!")
    elif k > 1:
        parts.append(f"(i!)^{k}")
    if p == 1:
        parts.append("i")
    elif p > 1:
        parts.append(f"i^{p}")
    return "*".join(parts) if parts else str(coeff)


def _fmt_form(a: Form) -> str:
    if not a[0]:
        return "0"
    terms, den = a
    keys = sorted(terms, key=lambda key: (key[0], _base_value(key[1]), key[2]))
    return " + ".join(_fmt_mono(key, Q(terms[key], den)) for key in keys)
