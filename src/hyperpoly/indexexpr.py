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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

Q = Fraction

# a scale monomial key: (factorial exponent, geometric base, power of i)
Key = tuple[int, Fraction, int]
# canonical form: key -> nonzero rational coefficient
Form = dict[Key, Fraction]

ONE_KEY: Key = (0, Q(1), 0)


class FragmentError(ValueError):
    """Requested operation leaves the decidable sequence fragment."""


@lru_cache(maxsize=4096)
def _factorial(i: int) -> int:
    return math.factorial(i)


def _f_const(q: Fraction) -> Form:
    q = Q(q)
    return {} if q == 0 else {ONE_KEY: q}


def _f_add(a: Form, b: Form) -> Form:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, Q(0)) + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _f_neg(a: Form) -> Form:
    return {k: -c for k, c in a.items()}


def _f_mul(a: Form, b: Form) -> Form:
    out: Form = {}
    for (k1, c1, p1), q1 in a.items():
        for (k2, c2, p2), q2 in b.items():
            key = (k1 + k2, c1 * c2, p1 + p2)
            s = out.get(key, Q(0)) + q1 * q2
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _f_eval(a: Form, i: int) -> Fraction:
    total = Q(0)
    for (k, c, p), q in a.items():
        total += q * c**i * Q(_factorial(i)) ** k * Q(i) ** p
    return total


def _f_poly_in_i(coeffs: list[Fraction]) -> Form:
    """coeffs[j] is the coefficient of i^j."""
    out: Form = {}
    for j, c in enumerate(coeffs):
        if c != 0:
            out[(0, Q(1), j)] = Q(c)
    return out


# ---------------------------------------------------------------------------
# growth classes
# ---------------------------------------------------------------------------

# class key: (factorial exponent, |geometric base|, power of i); lex order is
# the eventual-dominance order between scale monomials
ClassKey = tuple[int, Fraction, int]
UNIT_CLASS: ClassKey = (0, Q(1), 0)


def _classes(a: Form) -> dict[ClassKey, tuple[Fraction, Fraction]]:
    """Group monomials by growth class.

    Returns class -> (A, B) where the class contributes (A + B*(-1)^i) * g(i)
    with g the common positive growth profile; B collects negative bases.
    """
    out: dict[ClassKey, tuple[Fraction, Fraction]] = {}
    for (k, c, p), q in a.items():
        ck = (k, abs(c), p)
        A, B = out.get(ck, (Q(0), Q(0)))
        if c > 0:
            A += q
        else:
            B += q
        out[ck] = (A, B)
    return out


def _leading_from_classes(
    classes: dict, parity: int
) -> Optional[tuple[ClassKey, Fraction]]:
    sigma = 1 if parity == 0 else -1
    best: Optional[tuple[ClassKey, Fraction]] = None
    for ck, (A, B) in classes.items():
        gamma = A + sigma * B
        if gamma == 0:
            continue
        if best is None or ck > best[0]:
            best = (ck, gamma)
    return best


def _leading_on_parity(a: Form, parity: int) -> Optional[tuple[ClassKey, Fraction]]:
    """Dominant class and its coefficient on the subsequence i = parity mod 2.

    None means the form vanishes identically on that parity.
    """
    return _leading_from_classes(_classes(a), parity)


def _class_value(ck: ClassKey, i: int) -> Fraction:
    k, r, p = ck
    return r**i * Q(_factorial(i)) ** k * Q(i) ** p


def _step_bound_start(delta: ClassKey) -> int:
    """Smallest verified i0 such that g_delta(i+1)/g_delta(i) <= 1 for i >= i0.

    ``delta`` must be strictly below the unit class.  The step ratio is
    rho * (i+1)^dk * (1+1/i)^dp with rho = |base|; we return an index from
    which a decreasing upper bound of it is <= 1.
    """
    dk, rho, dp = delta
    if dk < 0:
        # step <= rho * 2^max(dp,0) * (i+1)^dk, decreasing in i
        cap = rho * Q(2) ** max(dp, 0)
        i0 = 1
        guess = float(cap) ** (1.0 / (-dk))
        if guess > 1.0:
            i0 = max(1, int(guess) - 1)
        while Q(i0 + 1) ** (-dk) < cap:
            i0 += 1
        return i0
    if dk == 0 and rho < 1:
        if dp <= 0:
            return 1
        # need rho * (1+1/i)^dp <= 1, LHS decreasing in i
        i0 = 1
        while rho * Q(i0 + 1) ** dp > Q(i0) ** dp:
            i0 *= 2
            if i0 > 1 << 40:
                raise FragmentError("step threshold search diverged")
        while i0 > 1 and rho * Q(i0) ** dp <= Q(i0 - 1) ** dp:
            i0 -= 1
        return i0
    if dk == 0 and rho == 1 and dp < 0:
        return 1
    raise FragmentError(f"step bound asked for non-decaying class delta {delta}")


def _class_sub(c1: ClassKey, c2: ClassKey) -> ClassKey:
    return (c1[0] - c2[0], c1[1] / c2[1], c1[2] - c2[2])


def nonzero_threshold(a: Form) -> Optional[int]:
    """Certified index t with a(i) != 0 for every i >= t, or None.

    None means the form vanishes at infinitely many indices (it is identically
    zero on at least one parity class).  The certificate is a dominance
    argument: beyond t the leading monomial class outweighs the sum of all
    lower ones, exactly, on each parity.
    """
    if not a:
        return None
    worst = 1
    for parity in (0, 1):
        lead = _leading_on_parity(a, parity)
        if lead is None:
            return None
        ck_star, gamma_star = lead
        sigma = 1 if parity == 0 else -1
        rest = []
        for ck, (A, B) in _classes(a).items():
            gamma = A + sigma * B
            if ck == ck_star or gamma == 0:
                continue
            rest.append((ck, gamma))
        if not rest:
            t = 1
        else:
            t = 1
            for ck, _ in rest:
                t = max(t, _step_bound_start(_class_sub(ck, ck_star)))
            # shrink/grow to where the lower classes sum below the leader
            def tail_sum(i: int) -> Fraction:
                g_star = _class_value(ck_star, i)
                return sum(
                    (abs(g) * _class_value(ck, i) / g_star for ck, g in rest),
                    Q(0),
                )
            while tail_sum(t) >= abs(gamma_star):
                t *= 2
                if t > 1 << 40:
                    raise FragmentError("dominance threshold search diverged")
        worst = max(worst, t)
    return worst


# per-parity eventual behaviour tags for a quotient num/den
ZERO = "zero"          # ratio tends to 0 (or is eventually exactly 0)
FINITE = "finite"      # ratio tends to a nonzero rational
INFINITE = "infinite"  # |ratio| tends to infinity
UNDEF = "undef"        # denominator vanishes identically on the parity


def _parity_behavior_from(
    num_classes: dict, den_classes: dict, parity: int
) -> tuple[str, Optional[Fraction]]:
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
    return (FINITE, g_n / g_d)


@dataclass(frozen=True)
class SeqGrowth:
    """Eventual behaviour of a real-valued sequence in the fragment.

    kind: 'zero' | 'finite' | 'infinite' | 'mixed' | 'undef'
    limit: the rational limit when the two parity behaviours agree, else None.
    parity: the raw ((tag, value), (tag, value)) pair for even/odd indices.
    """

    kind: str
    limit: Optional[Fraction]
    parity: tuple[tuple[str, Optional[Fraction]], tuple[str, Optional[Fraction]]]

    @property
    def has_limit(self) -> bool:
        return self.limit is not None or self.kind == "zero"


def quotient_growth(num: Form, den: Form) -> SeqGrowth:
    num_classes = _classes(num)
    den_classes = _classes(den)
    b0 = _parity_behavior_from(num_classes, den_classes, 0)
    b1 = _parity_behavior_from(num_classes, den_classes, 1)
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
        l0 = _leading_on_parity(form, 0)
        l1 = _leading_on_parity(form, 1)
        if l0 is None or l1 is None or l0[0] != l1[0]:
            return None
        keys.append(l0[0])
    return _class_sub(keys[0], keys[1])


class IndexExpr:
    """A sequence i -> Q in the decidable fragment, as a quotient of forms."""

    __slots__ = ("num", "den", "_growth", "_evals")

    def __init__(self, num: Form, den: Form):
        if not den:
            raise ZeroDivisionError("IndexExpr with identically zero denominator")
        self.num = num
        self.den = den
        self._growth: Optional[SeqGrowth] = None
        self._evals: dict[int, Fraction] = {}

    # -- constructors -------------------------------------------------------
    @staticmethod
    def const(q) -> "IndexExpr":
        return IndexExpr(_f_const(Q(q)), _f_const(Q(1)))

    @staticmethod
    def index() -> "IndexExpr":
        return IndexExpr({(0, Q(1), 1): Q(1)}, _f_const(Q(1)))

    @staticmethod
    def factorial() -> "IndexExpr":
        return IndexExpr({(1, Q(1), 0): Q(1)}, _f_const(Q(1)))

    @staticmethod
    def geometric(c) -> "IndexExpr":
        c = Q(c)
        if c == 0:
            raise FragmentError("geometric base must be nonzero (0^i is not in the fragment)")
        return IndexExpr({(0, c, 0): Q(1)}, _f_const(Q(1)))

    # -- ring/field operations ----------------------------------------------
    def __add__(self, other: "IndexExpr") -> "IndexExpr":
        other = _coerce(other)
        if self.den == other.den:
            return IndexExpr(_f_add(self.num, other.num), dict(self.den))
        num = _f_add(_f_mul(self.num, other.den), _f_mul(other.num, self.den))
        return IndexExpr(num, _f_mul(self.den, other.den))

    def __radd__(self, other):
        return _coerce(other) + self

    def __neg__(self) -> "IndexExpr":
        return IndexExpr(_f_neg(self.num), dict(self.den))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other) -> "IndexExpr":
        other = _coerce(other)
        return IndexExpr(_f_mul(self.num, other.num), _f_mul(self.den, other.den))

    def __rmul__(self, other):
        return _coerce(other) * self

    def __truediv__(self, other) -> "IndexExpr":
        other = _coerce(other)
        if not other.num:
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
        d = _f_eval(self.den, i)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at index {i}")
        v = self._evals[i] = _f_eval(self.num, i) / d
        return v

    def is_zero(self) -> bool:
        return not self.num

    def constant_value(self) -> Optional[Fraction]:
        """The constant this sequence equals, or None if it varies."""
        if not self.num:
            return Q(0)
        if set(self.num) != set(self.den):
            return None
        ratios = {self.num[k] / self.den[k] for k in self.num}
        return ratios.pop() if len(ratios) == 1 else None

    def eq(self, other: "IndexExpr") -> bool:
        other = _coerce(other)
        return not _f_add(_f_mul(self.num, other.den), _f_neg(_f_mul(other.num, self.den)))

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

    def eventual_nonzero_threshold(self) -> Optional[int]:
        """Certified t with self(i) defined and nonzero for all i >= t.

        The dominance argument may overshoot; the returned t is tightened by
        exact evaluation back down to just past the last actual zero.
        """
        if not self.num:
            return None
        tn = nonzero_threshold(self.num)
        td = nonzero_threshold(self.den)
        if tn is None or td is None:
            return None
        t = max(tn, td)
        while t > 1:
            try:
                if self.eval(t - 1) == 0:
                    break
            except ZeroDivisionError:
                break
            t -= 1
        return t

    def defined_threshold(self) -> Optional[int]:
        """Certified t with self(i) defined (denominator nonzero) for i >= t."""
        return nonzero_threshold(self.den)

    def __repr__(self):
        return f"IndexExpr({_fmt_form(self.num)} / {_fmt_form(self.den)})"


def _coerce(x) -> IndexExpr:
    if isinstance(x, IndexExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return IndexExpr.const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an IndexExpr")


def _subst_form(a: Form, scale: int, shift: int) -> tuple[Form, Form]:
    """Substitute i -> scale*i + shift; returns (num, den) of the image."""
    num_total: Form = {}
    den_total: Form = _f_const(Q(1))
    for (k, c, p), q in a.items():
        mono_num: Form = _f_const(q)
        mono_den: Form = _f_const(Q(1))
        if c != 1:
            # c^(scale*i+shift) = (c^scale)^i * c^shift
            mono_num = _f_mul(mono_num, {(0, c**scale, 0): c**shift})
        if p != 0:
            # (scale*i + shift)^p expanded as a polynomial in i
            coeffs = [Q(0)] * (p + 1)
            for j in range(p + 1):
                coeffs[j] = Q(math.comb(p, j)) * Q(scale) ** j * Q(shift) ** (p - j)
            mono_num = _f_mul(mono_num, _f_poly_in_i(coeffs))
        if k != 0:
            if scale != 1:
                raise FragmentError("factorial under a scaled reindexing leaves the fragment")
            fact: Form = {(k, Q(1), 0): Q(1)}
            if shift >= 0:
                # (i+shift)! = i! * (i+1)...(i+shift)
                prod = _f_const(Q(1))
                for j in range(1, shift + 1):
                    prod = _f_mul(prod, _f_poly_in_i([Q(j), Q(1)]))
                fact = _f_mul(fact, _power_form(prod, k))
                mono_num = _f_mul(mono_num, fact)
            else:
                # (i-s)! = i! / (i (i-1) ... (i-s+1))
                prod = _f_const(Q(1))
                for j in range(0, -shift):
                    prod = _f_mul(prod, _f_poly_in_i([Q(-j), Q(1)]))
                mono_num = _f_mul(mono_num, fact)
                mono_den = _f_mul(mono_den, _power_form(prod, k))
        # accumulate over the common denominator
        num_total = _f_add(_f_mul(num_total, mono_den), _f_mul(mono_num, den_total))
        den_total = _f_mul(den_total, mono_den)
    return num_total, den_total


def _power_form(a: Form, n: int) -> Form:
    out = _f_const(Q(1))
    for _ in range(n):
        out = _f_mul(out, a)
    return out


def _fmt_mono(key: Key, coeff: Fraction) -> str:
    k, c, p = key
    parts = [] if coeff == 1 and key != ONE_KEY else [str(coeff)]
    if c != 1:
        parts.append(f"({c})^i")
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
    if not a:
        return "0"
    return " + ".join(_fmt_mono(k, c) for k, c in sorted(a.items(), key=lambda kv: kv[0]))
