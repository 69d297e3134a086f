"""Hypernatural numbers as nondecreasing integer sequences.

The representing sequences we need are eventually affine: ``d_i = a*i + b``
from some point on, with finitely many explicit overrides before that (this is
how ``min(i, K)``-style sequences enter).  Eventual affinity is closed under
sum, scaling, and max, and makes "is this degree infinite?" a one-liner:
the sequence is unbounded exactly when the eventual slope is positive.
"""

from __future__ import annotations

from .record import Record, _set


class HyperNatural(Record, frozen=True):
    __slots__ = ("slope", "intercept", "patches")
    def __init__(self, slope: int = 0, intercept: int = 0,
                 patches: tuple[tuple[int, int], ...] = ()):
        if slope < 0:
            raise ValueError("slope must be >= 0")
        _set(self, "slope", slope)
        _set(self, "intercept", intercept)
        _set(self, "patches", tuple(sorted(dict(patches).items())))
        for i, v in self.patches:
            if i < 1 or v < 0:
                raise ValueError("patches must map indices >= 1 to naturals")
        if self.patches:
            hi = self.patches[-1][0]
            for i in range(1, hi + 1):
                if self.value(i) > self.value(i + 1):
                    raise ValueError(f"sequence must be nondecreasing (fails at index {i})")

    # -- constructors --------------------------------------------------------
    @staticmethod
    def constant(k: int) -> "HyperNatural":
        if k < 0:
            raise ValueError("hypernaturals are nonnegative")
        return HyperNatural(0, k)

    @staticmethod
    def identity() -> "HyperNatural":
        return HyperNatural(1, 0)

    @staticmethod
    def affine(a: int, b: int) -> "HyperNatural":
        return HyperNatural(a, b)

    # -- queries --------------------------------------------------------------
    def value(self, i: int) -> int:
        for j, v in self.patches:
            if j == i:
                return v
        return max(0, self.slope * i + self.intercept)

    def stable_from(self, m: int) -> int:
        """An index from which ``value(i)`` compares with ``m`` (<, == or >) as
        it does at every later index: past the patches, and for a positive
        slope past the last index with ``value(i) <= m``."""
        t = self.patches[-1][0] + 1 if self.patches else 1
        if self.slope > 0:
            t = max(t, (m - self.intercept) // self.slope + 1)
        return t

    @property
    def infinite(self) -> bool:
        """Unbounded, equivalently not eventually constant."""
        return self.slope > 0

    @property
    def finite_value(self) -> int:
        if self.infinite:
            raise ValueError("hypernatural is infinite")
        return max(0, self.intercept)

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: "HyperNatural") -> "HyperNatural":
        other = _coerce(other)
        hi = max([j for j, _ in self.patches + other.patches], default=0)
        patches = tuple(
            (i, self.value(i) + other.value(i)) for i in range(1, hi + 1)
        )
        return HyperNatural(self.slope + other.slope, self.intercept + other.intercept, patches)

    def __mul__(self, k: int) -> "HyperNatural":
        if not isinstance(k, int) or k < 0:
            raise TypeError("hypernaturals scale by naturals")
        return HyperNatural(
            self.slope * k,
            self.intercept * k,
            tuple((i, v * k) for i, v in self.patches),
        )

    __rmul__ = __mul__

    def max_with(self, other: "HyperNatural") -> "HyperNatural":
        other = _coerce(other)
        # the eventually-larger branch: larger slope wins, ties by intercept
        if self.slope != other.slope:
            win = self if self.slope > other.slope else other
        else:
            win = self if self.intercept >= other.intercept else other
        lose = other if win is self else self
        # patch every index where the loser is still ahead
        cross = 1
        while win.value(cross) < lose.value(cross):
            cross += 1
        hi = max([cross] + [j for j, _ in self.patches + other.patches])
        patches = tuple((i, max(self.value(i), other.value(i))) for i in range(1, hi + 1))
        return HyperNatural(win.slope, win.intercept, patches)

    def eq(self, other: "HyperNatural") -> bool:
        other = _coerce(other)
        hi = max([j for j, _ in self.patches + other.patches], default=0)
        return (
            self.slope == other.slope
            and self.intercept == other.intercept
            and all(self.value(i) == other.value(i) for i in range(1, hi + 1))
        )

    def __str__(self):
        if not self.infinite:
            return str(self.finite_value)
        core = "i" if self.slope == 1 else f"{self.slope}*i"
        if self.intercept > 0:
            core += f"+{self.intercept}"
        elif self.intercept < 0:
            core += str(self.intercept)
        return f"[{core}]"


def _coerce(x) -> HyperNatural:
    if isinstance(x, HyperNatural):
        return x
    if isinstance(x, int):
        return HyperNatural.constant(x)
    raise TypeError(f"cannot use {type(x).__name__} as a HyperNatural")
