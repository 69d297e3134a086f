"""Three-valued asymptotic truth.

A ``Verdict`` records whether a predicate on indices is eventually true
(``Holds``), eventually false (``Fails``), or not decided within the sampled
horizon (``Undetermined``).  Truth here is cofinite truth: finitely many
leading indices never matter.  This is the constructive stand-in for truth
along a non-principal ultrafilter — anything decided cofinitely is decided
the same way by every such ultrafilter.

The sampled horizon is how late the window heuristics and the sampling
oracle look.  ``HORIZON`` is the library's default; a caller passes another
per call, and the command line through ``--horizon``.  The window thresholds
are constants next to the code that reads them (``hypernum``), and nothing
in the package reads ambient state: no environment variable, and no entropy,
since randomized procedures take an explicit seed.
"""

from __future__ import annotations

from typing import Callable

from .record import Record, _set

HOLDS = "Holds"
FAILS = "Fails"
UNDETERMINED = "Undetermined"

# sampling window for eventual-truth verdicts
HORIZON = 64


class PredicateEvaluationError(Exception):
    """Raised when the sampled predicate itself blows up at some index."""

    def __init__(self, index: int, cause: BaseException):
        super().__init__(f"predicate evaluation failed at index {index}: {cause!r}")
        self.index = index
        self.cause = cause


class GridExhausted(RuntimeError):
    """No grid point satisfied the constraint set (corpus degeneracy).

    Raised by ``genpoint``'s avoiding-point search; it lives here so that the
    command line names it without loading ``genpoint``."""

    def __init__(self, index, failing):
        super().__init__(f"grid exhausted at index {index}; obstructed by {failing}")
        self.index = index
        self.failing = failing


class Verdict(Record, frozen=True):
    __slots__ = ("kind", "witness", "note")
    def __init__(self, kind: str, witness: int, note: str = ""):
        # kind: Holds | Fails | Undetermined; witness: the threshold for
        # Holds/Fails, the horizon for Undetermined
        if kind not in (HOLDS, FAILS, UNDETERMINED):
            raise ValueError(f"bad verdict kind {kind!r}")
        if witness < 0:
            raise ValueError("witness must be >= 0")
        _set(self, "kind", kind)
        _set(self, "witness", witness)
        _set(self, "note", note)

    @property
    def decided(self) -> bool:
        return self.kind != UNDETERMINED

    def holds(self) -> bool:
        return self.kind == HOLDS

    def fails(self) -> bool:
        return self.kind == FAILS

    def to_json(self) -> dict:
        return {"kind": self.kind, "witness": self.witness, "note": self.note}

    def __str__(self) -> str:
        tag = "t" if self.decided else "horizon"
        s = f"{self.kind}({tag}={self.witness})"
        return f"{s} [{self.note}]" if self.note else s


def eventually(pred: Callable[[int], bool], horizon: int, note: str = "") -> Verdict:
    """Decide whether ``pred`` is eventually constant over the sampled window.

    The window is ``[1, horizon]``.  ``Holds(t)`` means the predicate was true
    at every sampled index in ``[t, horizon]`` with ``t <= horizon/2``, so a
    positive verdict always rests on at least half the window.  ``Fails`` is
    symmetric for the negation, with the same threshold rule.  Otherwise the
    verdict is ``Undetermined(horizon)``.

    For predicates backed by the symbolic sequence fragment the caller may
    attach a stronger certificate through ``note``; the sampled threshold is
    then also an eventual one.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    values = []
    for i in range(1, horizon + 1):
        try:
            values.append(bool(pred(i)))
        except Exception as exc:       # noqa: BLE001 - carry the failing index
            raise PredicateEvaluationError(i, exc) from exc

    def threshold(seq):
        # first index from which seq is constantly True through the horizon
        t = horizon + 1
        for i in range(horizon, 0, -1):
            if seq[i - 1]:
                t = i
            else:
                break
        return t

    t_true = threshold(values)
    if t_true <= horizon / 2:
        return Verdict(HOLDS, t_true, note)
    t_false = threshold([not v for v in values])
    if t_false <= horizon / 2:
        return Verdict(FAILS, t_false, note)
    return Verdict(UNDETERMINED, horizon, note)

