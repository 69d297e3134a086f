"""Hypercomplex numbers modeled by representative sequences.

Every value is exact.  A *symbolic* number carries one
:class:`~hyperpoly.indexexpr.IndexExpr` per real/imaginary component, so
magnitude classification and standard parts are exact decisions.  A
*generator-backed* number wraps a rule ``i -> (re, im)`` of exact ``Fraction``
pairs; it stays fully usable in ring arithmetic, but has no closed form, so
its classification is windowed evidence that may come back Undetermined.
Floats appear only where values are read out: :meth:`HyperComplex.value`
(display) and that window heuristic.

Finitely many leading indices never matter (the ultraproduct quotient), so a
symbolic number may also carry a value rule ``gen`` that answers below a first
index ``until``, where its expressions take over: this is how a coefficient
whose early values are its entries in its polynomial's rows, or come from its
operands' values, is represented.  A rule runs only when read, once per index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .indexexpr import IndexExpr
from .record import Record, _set
from .verdicts import HOLDS, HORIZON, UNDETERMINED, Verdict

Q = Fraction

# window heuristics for generator-backed values (window = [1, horizon])
INFINITESIMAL_TOL = 1e-9    # |value| below this on the last quarter
GROWTH_RATIO = 2.0          # sustained |v[i+1]/v[i]| above this => infinite
BOUNDED_CAP = 1e9           # window max below this => bounded evidence

INFINITESIMAL = "infinitesimal"
APPRECIABLE = "appreciable"
INFINITE = "infinite"
BOUNDED_UNCLASSIFIED = "bounded-unclassified"
UNDECIDED = "undetermined"


class NoStandardPartError(ArithmeticError):
    pass


class Classification(Record, frozen=True):
    __slots__ = ("label", "verdict")
    def __init__(self, label: str, verdict: Verdict):
        _set(self, "label", label)
        _set(self, "verdict", verdict)

    def to_json(self):
        return {"class": self.label, "verdict": self.verdict.to_json()}


class HyperComplex:
    """An element of the hypercomplex numbers, given by its representative: the
    ``re``/``im`` expressions and a rule ``gen`` read below ``until``, or ``gen`` alone."""

    __slots__ = ("re", "im", "until", "gen", "_values")

    def __init__(
        self,
        re: Optional[IndexExpr] = None,
        im: Optional[IndexExpr] = None,
        until: int = 1,
        gen: Optional[Callable[[int], tuple[Fraction, Fraction]]] = None,
    ):
        if gen is not None and re is None and im is None:   # generator-backed
            self.re = self.im = None
        else:
            self.re = re if re is not None else IndexExpr.const(0)
            self.im = im if im is not None else IndexExpr.const(0)
            gen = gen if until > 1 else None   # a rule that is never read is not kept
        self.until = until
        self.gen = gen
        self._values: dict[int, tuple[Fraction, Fraction]] = {}

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def from_rational(re, im=0) -> "HyperComplex":
        return HyperComplex(IndexExpr.const(Q(re)), IndexExpr.const(Q(im)))

    @staticmethod
    def from_expr(re: IndexExpr, im: Optional[IndexExpr] = None) -> "HyperComplex":
        return HyperComplex(re, im if im is not None else IndexExpr.const(0))

    @staticmethod
    def from_generator(gen: Callable[[int], tuple[Fraction, Fraction]]) -> "HyperComplex":
        """The class of the sequence ``i -> gen(i)``, an exact ``(re, im)`` pair."""
        return HyperComplex(gen=gen)

    @staticmethod
    def epsilon() -> "HyperComplex":
        """The canonical infinitesimal [1/i]."""
        return HyperComplex(IndexExpr.const(1) / IndexExpr.index())

    @staticmethod
    def omega() -> "HyperComplex":
        """The canonical infinite number [i]."""
        return HyperComplex(IndexExpr.index())

    @property
    def symbolic(self) -> bool:
        return self.re is not None

    # -- evaluation -------------------------------------------------------------
    def value_exact(self, i: int) -> tuple[Fraction, Fraction]:
        if self.gen is None or (self.re is not None and i >= self.until):
            return (self.re.eval(i), self.im.eval(i))
        out = self._values.get(i)
        if out is None:
            out = self._values[i] = self.gen(i)
        return out

    def value(self, i: int) -> complex:
        return exact_complex(*self.value_exact(i))

    def is_zero_expr(self) -> bool:
        """Zero as an element of the ultraproduct (values below ``until`` ignored)."""
        return self.symbolic and self.re.is_zero() and self.im.is_zero()

    # -- ring operations ----------------------------------------------------------
    def _binary(self, other: "HyperComplex", op) -> "HyperComplex":
        """Apply ``op(a, b, c, d) -> (re, im)`` to the parts of ``self = a + bi``
        and ``other = c + di``: to the expressions of two symbolic values, and
        to the exact values below the larger ``until``, or at every index when
        a value is generator-backed."""
        other = coerce(other)

        def gen(i, x=self, y=other):
            return op(*x.value_exact(i), *y.value_exact(i))
        if self.symbolic and other.symbolic:
            re, im = op(self.re, self.im, other.re, other.im)
            return HyperComplex(re, im, max(self.until, other.until), gen)
        return HyperComplex(gen=gen)

    def __add__(self, other):
        return self._binary(other, lambda a, b, c, d: (a + c, b + d))

    __radd__ = __add__

    def __neg__(self):
        return self._binary(0, lambda a, b, c, d: (-a, -b))

    def __sub__(self, other):
        return self + (-coerce(other))

    def __rsub__(self, other):
        return coerce(other) - self

    def __mul__(self, other):
        return self._binary(other, lambda a, b, c, d: (a * c - b * d, a * d + b * c))

    __rmul__ = __mul__

    def modulus_squared_expr(self) -> IndexExpr:
        if not self.symbolic:
            raise TypeError("a generator-backed value has no symbolic modulus")
        return self.re * self.re + self.im * self.im

    # -- classification -------------------------------------------------------------
    def classify(self, horizon: int = HORIZON) -> Classification:
        """Exact class (symbolic), or window evidence over indices 1..horizon."""
        if self.symbolic:
            return _classify_symbolic(self)
        return _classify_numeric(self, horizon)

    def standard_part(self):
        """The exact limit as a (re, im) Fraction pair, or None when it is
        not decided: the value oscillates, or is generator-backed and bounded.
        Raises for infinite inputs.
        """
        if self.symbolic:
            # convergent components settle everything without the modulus form
            re_l, im_l = self.re.limit(), self.im.limit()
            if re_l is not None and im_l is not None:
                return (re_l, im_l)
        cls = self.classify()
        if cls.label == INFINITE:
            raise NoStandardPartError("no standard part: the number is infinite")
        if self.symbolic and self.modulus_squared_expr().growth().kind == "zero":
            return (Q(0), Q(0))
        return None


def exact_complex(re, im) -> complex:
    """``re + im*i`` as a complex; a part past the float range reads as +-inf."""
    parts = []
    for x in (re, im):
        try:
            parts.append(float(x))
        except OverflowError:
            parts.append(float("inf") if x > 0 else float("-inf"))
    return complex(*parts)


def coerce(x) -> HyperComplex:
    if isinstance(x, HyperComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return HyperComplex.from_rational(x)
    if isinstance(x, IndexExpr):
        return HyperComplex.from_expr(x)
    raise TypeError(f"cannot use {type(x).__name__} as a HyperComplex")


def _classify_symbolic(x: HyperComplex) -> Classification:
    m2 = x.modulus_squared_expr()
    g = m2.growth()
    if g.kind == "zero":
        return Classification(
            INFINITESIMAL, Verdict(HOLDS, 1, "symbolic: |x|^2 -> 0")
        )
    if g.kind == "infinite":
        return Classification(INFINITE, Verdict(HOLDS, 1, "symbolic: |x|^2 -> oo"))
    if g.kind == "finite":
        note = (
            f"symbolic: |x|^2 -> {g.limit}" if g.limit is not None
            else "symbolic: |x|^2 has nonzero parity limits"
        )
        return Classification(APPRECIABLE, Verdict(HOLDS, 1, note))
    if g.kind == "finite-or-zero":
        return Classification(
            BOUNDED_UNCLASSIFIED,
            Verdict(HOLDS, 1, "symbolic: bounded, dips toward zero on one parity"),
        )
    return Classification(
        UNDECIDED, Verdict(UNDETERMINED, 1, f"symbolic growth not decided ({g.kind})")
    )


def _classify_numeric(x: HyperComplex, h: int) -> Classification:
    vals = []
    for i in range(1, h + 1):
        try:
            vals.append(abs(x.value(i)))
        except (ZeroDivisionError, OverflowError):  # past the float range: infinite
            vals.append(float("inf"))
    quarter = vals[3 * h // 4:]
    if all(v < INFINITESIMAL_TOL for v in quarter):
        return Classification(
            INFINITESIMAL,
            Verdict(HOLDS, 3 * h // 4 + 1, f"window: |x| < {INFINITESIMAL_TOL} on last quarter"),
        )
    ratios = [
        vals[i + 1] / vals[i]
        for i in range(3 * h // 4, h - 1)
        if vals[i] > 0
    ]
    if ratios and all(r > GROWTH_RATIO for r in ratios):
        return Classification(
            INFINITE,
            Verdict(HOLDS, 3 * h // 4 + 1, f"window: sustained growth ratio > {GROWTH_RATIO}"),
        )
    if max(vals) <= BOUNDED_CAP:
        return Classification(
            BOUNDED_UNCLASSIFIED,
            Verdict(HOLDS, 1, f"window: |x| <= {max(vals):.6g} across horizon {h}"),
        )
    return Classification(UNDECIDED, Verdict(UNDETERMINED, h, "window evidence inconclusive"))
