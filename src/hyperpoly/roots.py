"""Simultaneous root finding for the materialized polynomials.

Durand-Kerner, deterministic end to end: the polynomial is first rescaled by
its Fujiwara root bound (z = s*w puts every root inside the unit-ish disc in
w, whatever the coefficient spread), then all starting points are placed on
the circle of radius ``1 + max|coefficient|`` of the rescaled monic
polynomial, at evenly spaced angles with a fixed phase offset so conjugate
symmetry cannot stall the iteration.  No randomness: the same input always
yields the same root list.
"""

from __future__ import annotations

import cmath


def _fujiwara_bound(monic: list[complex]) -> float:
    """Upper bound on root moduli of a monic polynomial (Fujiwara)."""
    n = len(monic) - 1
    best = 0.0
    for k in range(n):
        a = abs(monic[k])
        if a == 0:
            continue
        if k == 0:
            a /= 2
        best = max(best, a ** (1.0 / (n - k)))
    return 2.0 * best if best > 0 else 1.0


def durand_kerner(coeffs: list[complex]) -> list[complex]:
    """Roots of sum coeffs[k] z^k; the leading coefficient must be nonzero.

    At most 200 sweeps, stopping once no root moves by 1e-12.
    """
    coeffs = [complex(c) for c in coeffs]
    while coeffs and abs(coeffs[-1]) == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) < 2:
        return []
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    deg = len(monic) - 1
    scale = max(_fujiwara_bound(monic), 1e-30)
    # w-polynomial: monic with coefficients b_k = monic_k / scale^(deg-k),
    # all of modulus <= 2^(k-deg) by the Fujiwara construction
    b = [monic[k] / scale ** (deg - k) for k in range(deg + 1)]

    def p(w: complex) -> complex:
        acc = 0j
        for c in reversed(b):
            acc = acc * w + c
        return acc

    radius = 1.0 + max(abs(c) for c in b)
    w = [
        radius * cmath.exp(2j * cmath.pi * (j / deg + 0.25 / deg + 1 / 16))
        for j in range(deg)
    ]
    for _ in range(200):
        moved = 0.0
        for j in range(deg):
            denom = 1.0 + 0j
            for k in range(deg):
                if k != j:
                    denom *= w[j] - w[k]
            if denom == 0:
                w[j] += 1e-8 * (1 + 1j)
                continue
            delta = p(w[j]) / denom
            w[j] -= delta
            moved = max(moved, abs(delta))
        if moved < 1e-12:
            break
    roots = [scale * wj for wj in w]
    # deterministic order: by angle, ties by modulus
    return sorted(roots, key=lambda z: (cmath.phase(z), abs(z)))


def bisection(f, lo: float, hi: float) -> float:
    """Plain bisection, 200 halvings; f(lo) and f(hi) must have opposite signs."""
    flo = f(lo)
    if flo == 0:
        return lo
    if f(hi) == 0:
        return hi
    if (flo > 0) == (f(hi) > 0):
        raise ValueError("bisection needs a sign change")
    for _ in range(200):
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2
