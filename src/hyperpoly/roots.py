"""Simultaneous root finding for the materialized polynomials.

Durand-Kerner, deterministic end to end: the polynomial is rescaled by its
Fujiwara root bound (z = s*w puts every root inside the unit-ish disc in w),
and the starting points sit evenly spaced, with a fixed phase offset so that
conjugate symmetry cannot stall the iteration, on the circle of radius
``1 + max|coefficient|`` of the rescaled monic polynomial.  A sweep corrects
w_0, w_1, ... in place (Gauss-Seidel), multiplies each denominator from
1 + 0j over ascending k and evaluates each numerator by Horner from the top
coefficient.  That order of floating-point operations is part of the output:
``perfbench/golden/cli.json`` pins the ``zeros`` roots bit for bit.
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


def _scaled(c: complex, scale: float, e: int) -> complex:
    """``c / scale^e``; ``e`` divisions where the power passes the float range."""
    try:
        return c / scale ** e
    except OverflowError:   # a tiny leading coefficient
        for _ in range(e):
            c /= scale
        return c


def durand_kerner(coeffs: list[complex]) -> list[complex]:
    """Roots of sum coeffs[k] z^k; the leading coefficient must be nonzero.

    At most 200 sweeps, stopping once no root moves by 1e-12; the roots come
    sorted by angle, ties by modulus.
    """
    coeffs = [complex(c) for c in coeffs]
    while coeffs and abs(coeffs[-1]) == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) < 2:
        return []
    monic = [c / coeffs[-1] for c in coeffs]
    deg = len(monic) - 1
    scale = max(_fujiwara_bound(monic), 1e-30)
    # w-polynomial: monic with coefficients b_k = monic_k / scale^(deg-k),
    # all of modulus <= 2^(k-deg) by the Fujiwara construction
    b = [_scaled(monic[k], scale, deg - k) for k in range(deg + 1)]
    top_first = b[::-1]
    radius = 1.0 + max(abs(c) for c in b)
    w = [radius * cmath.exp(2j * cmath.pi * (j / deg + 0.25 / deg + 1 / 16))
         for j in range(deg)]
    for _ in range(200):
        moved = 0.0
        for j in range(deg):
            wj = w[j]
            denom = 1.0 + 0j
            for wk in w[:j]:
                denom *= wj - wk
            for wk in w[j + 1:]:
                denom *= wj - wk
            if denom == 0:
                w[j] = wj + 1e-8 * (1 + 1j)
                continue
            acc = 0j
            for c in top_first:
                acc = acc * wj + c
            delta = acc / denom
            w[j] = wj - delta
            if abs(delta) > moved:
                moved = abs(delta)
        if moved < 1e-12:
            break
    roots = [scale * wj for wj in w]
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
