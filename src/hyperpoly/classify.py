"""Boundedness and infinitesimality of internal polynomials.

The decision follows the coefficient criteria: an internal polynomial is
absolutely bounded iff its standard-index coefficients are bounded and the
root test ``|a_nu|^(1/|nu|)`` is infinitesimal over the infinite index range;
absolutely infinitesimal additionally needs every standard coefficient (and
the constant term) infinitesimal.  The infinite-range quantifier is realized
on two growth rays, ``|nu| = d_i`` and ``|nu| = ceil(d_i/2)``: within the
band fragment used here a rule that decays along both rays decays uniformly
over the whole range.

A verdict never stands alone: it carries a :class:`Certificate` naming the
clause that fired, and the evaluation oracle in this module can cross-examine
it by sampling the polynomial on polydiscs.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional

from .exacteval import evaluate
from .hypernum import (
    APPRECIABLE,
    BOUNDED_UNCLASSIFIED,
    GROWTH_RATIO,
    INFINITE,
    INFINITESIMAL,
    INFINITESIMAL_TOL,
    UNDECIDED,
    HyperComplex,
)
from .indexexpr import UNIT_CLASS, IndexExpr, class_key_of_square
from .interpoly import (
    InternalPolynomial,
    ProductPoly,
    StructuredPoly,
    TailTerm,
    mi_total,
    poly_eval,
)
from .record import Record, _set
from .verdicts import FAILS, HOLDS, HORIZON, UNDETERMINED, Verdict

Q = Fraction

# the oracle's tolerances on |P|^2, as integer ratios
_TOL_SQ = (Q(INFINITESIMAL_TOL) ** 2).as_integer_ratio()
_GROWTH_SQ = (Q(GROWTH_RATIO) ** 2).as_integer_ratio()

BOUNDED = "bounded"
UNBOUNDED = "unbounded"
# INFINITESIMAL / UNDECIDED reused from hypernum

# extended "limit of a root test factor" values
_ZERO, _POS, _INF, _UNK = "zero", "pos", "inf", "unknown"


class Certificate(Record, frozen=True):
    __slots__ = ("kind", "details")
    def __init__(self, kind: str, details: tuple = ()):
        _set(self, "kind", kind)  # root-test | sample | finite-degree | propagated
        _set(self, "details", details)

    def to_json(self):
        # every certificate is symbolic; the key stays for the report schema
        return {"kind": self.kind, "details": [str(d) for d in self.details],
                "symbolic": True}


class PolyClass(Record, frozen=True):
    __slots__ = ("verdict", "certificate", "infinitesimal")
    def __init__(self, verdict: str, certificate: Certificate, infinitesimal: str = "unknown"):
        _set(self, "verdict", verdict)  # bounded | infinitesimal | unbounded | undetermined
        _set(self, "certificate", certificate)
        _set(self, "infinitesimal", infinitesimal)  # yes | no | unknown (if bounded)

    @property
    def bounded(self) -> bool:
        return self.verdict in (BOUNDED, INFINITESIMAL)

    def to_json(self):
        return {
            "verdict": self.verdict,
            "infinitesimal": self.infinitesimal,
            "certificate": self.certificate.to_json(),
        }


def _root_test(verdict: str, *details: str, infinitesimal: str = "unknown") -> PolyClass:
    return PolyClass(verdict, Certificate("root-test", details), infinitesimal)


def classify_poly(p: InternalPolynomial) -> PolyClass:
    if isinstance(p, StructuredPoly):
        return _classify_structured(p)
    if isinstance(p, ProductPoly):
        return _classify_product(p)
    return PolyClass(
        UNDECIDED,
        Certificate("propagated", ("materialization-backed node; no coefficient rule",)),
    )


def _classify_product(p: ProductPoly) -> PolyClass:
    """Ring-law propagation: bounded*bounded stays bounded, infinitesimal
    absorbs bounded, and standard parts multiply through an integral domain.
    """
    a = classify_poly(p.p)
    b = classify_poly(p.q)
    cert = Certificate("propagated", (a.verdict, b.verdict))
    if a.bounded and b.bounded:
        if INFINITESIMAL in (a.verdict, b.verdict):
            return PolyClass(INFINITESIMAL, cert, "yes")
        flag = "no" if (a.infinitesimal, b.infinitesimal) == ("no", "no") else "unknown"
        return PolyClass(BOUNDED, cert, flag)
    return PolyClass(UNDECIDED, cert)


def _classify_structured(p: StructuredPoly) -> PolyClass:
    inf_flag = "yes"
    undecided: list[str] = []

    # clause (i) at explicitly listed standard indices
    for nu, c in sorted(p.explicit.items()):
        label = c.classify().label
        if label == INFINITE:
            return _root_test(UNBOUNDED, f"clause i fails: coefficient at {nu} is infinite",
                              infinitesimal="no")
        if label == UNDECIDED:
            undecided.append(f"coefficient at {nu} undecided")
        elif label == APPRECIABLE:
            inf_flag = "no"
        elif label == BOUNDED_UNCLASSIFIED and inf_flag == "yes":
            inf_flag = "unknown"

    # each band's root-test limits on the two rays, read once: a band is live
    # when one of them is not zero, and isolated when no other band is live
    # (only then can no other band cancel it)
    squares = [t.psi_re * t.psi_re + t.psi_im * t.psi_im for t in p.tails]
    rays = [_band_ray_values(p, t, psi2) for t, psi2 in zip(p.tails, squares)]
    live = [any(v != _ZERO for v in r or ()) for r in rays]

    # moving top monomials (univariate): root test at |nu| = each top's own degree
    for t in p.tops:
        res = _classify_top(t, any(live))
        if res is not None:
            return res

    # coefficient bands: clause (i) on the standard degrees, then clause (ii)
    for t, psi2, r, t_live in zip(p.tails, squares, rays, live):
        walk = _band_key_walk(t, psi2)
        if walk is not None and walk[0] == "unbounded":
            return _root_test(
                UNBOUNDED, f"clause i fails: band coefficient at |nu| = {walk[1]} is infinite",
                infinitesimal="no")
        isolated = not any(u_live for u, u_live in zip(p.tails, live) if u is not t)
        if isolated and any(v in (_POS, _INF) for v in r or ()):
            return _root_test(UNBOUNDED,
                              "clause ii fails: band root test has a nonzero limit on a ray",
                              infinitesimal="no")
        if walk is None:
            undecided.append("band finite-range class undecided")
        elif walk[1] == "no":
            inf_flag = "no"
        if t_live:
            undecided.append("band root test undecided")

    if undecided:
        return _root_test(UNDECIDED, *undecided)
    if inf_flag == "yes":
        return _root_test(INFINITESIMAL, "all standard coefficients infinitesimal; "
                          "root test vanishes on both rays", infinitesimal="yes")
    return _root_test(BOUNDED, "clauses i and ii hold", infinitesimal=inf_flag)


def _classify_top(t, shared: bool) -> Optional[PolyClass]:
    """Moving monomial c(i) X^(e_i), ``e = t.degree``: decide its root-test limit.

    ``shared`` says whether some band is live on the infinite range.
    """
    c = t.coeff
    if c.is_zero_expr():
        return None
    if not t.degree.infinite:
        # a plain standard coefficient; fold into clause (i)
        if c.classify().label == INFINITE:
            return _root_test(UNBOUNDED, "clause i fails: top coefficient infinite",
                              infinitesimal="no")
        return None
    key = class_key_of_square(c.modulus_squared_expr())
    if key is None:
        return _root_test(UNDECIDED, "top coefficient class undecided")
    k2 = key[0]
    if k2 < 0:
        return None  # |c|^(1/d) -> 0: compatible with bounded
    # k2 >= 0: |c(i)|^(1/d_i) tends to a positive constant or diverges, and
    # factorial growth can never be cancelled by another band in this form
    if shared:
        return _root_test(UNDECIDED, "top coefficient and band share the infinite range")
    v = "oo" if k2 > 0 else f"({key[1]})^(1/{2 * t.degree.slope})"
    return _root_test(UNBOUNDED, f"clause ii fails: top coefficient root test -> {v} > 0",
                      infinitesimal="no")


def _band_reaches_ray(p: StructuredPoly, t: TailTerm, num: int, den: int) -> bool:
    """Does the band eventually cover the ray m = (num/den) * d_i?"""
    ray_slope = Fraction(p.degree.slope * num, den)
    if t.lo is not None:
        if Fraction(t.lo.slope) > ray_slope:
            return False
        if Fraction(t.lo.slope) == ray_slope and t.lo.intercept >= math.ceil(
            p.degree.intercept * num / den
        ):
            return False
    return Fraction(t.hi.slope) >= ray_slope


def _root_factor(sq: IndexExpr) -> str:
    """lim |e|^(1/m) along a ray m ~ s*i as a coarse value, given sq = |e|^2:
    zero / pos / inf / unknown.

    The slope never matters for the coarse value: a factorial class forces 0
    or oo, anything geometric-or-slower lands at a positive constant.
    """
    if sq.is_zero():
        return _ZERO
    key = class_key_of_square(sq)
    if key is None:
        return _UNK
    return _ZERO if key[0] < 0 else _INF if key[0] > 0 else _POS


def _root_factor_eps(eps: IndexExpr) -> str:
    """lim |eps(i)| itself (exponent 1 per unit of m)."""
    if eps.is_zero():
        return _ZERO
    kind = (eps * eps).growth().kind
    return {"zero": _ZERO, "infinite": _INF, "finite": _POS}.get(kind, _UNK)


def _combine_root_factors(factors: list[str]) -> str:
    if any(f == _UNK for f in factors):
        if _ZERO in factors and _INF not in factors:
            return _ZERO
        return _UNK
    if _INF in factors and _ZERO in factors:
        return _UNK
    if _INF in factors:
        return _INF
    if _ZERO in factors:
        return _ZERO
    return _POS


def _band_ray_values(p: StructuredPoly, t: TailTerm, psi2: IndexExpr) -> Optional[list[str]]:
    """Root-test limits of the band along the two rays, None when no infinite
    range; ``psi2`` is ``|psi|^2``."""
    if not p.degree.infinite:
        return None
    rays = sum(_band_reaches_ray(p, t, num, den) for num, den in ((1, 1), (1, 2)))
    phis = [f for f in t.phi if not f.is_zero()]
    if not rays or not phis:
        return []
    common = [_root_factor_eps(t.eps), _root_factor(psi2)]
    return [_combine_root_factors(common + [_root_factor(f * f)]) for f in phis] * rays


def _band_key_walk(t: TailTerm, psi2: IndexExpr):
    """Walk standard degrees m: class key of a(m, .) is key(psi) + m*key(eps).

    Returns ("unbounded", m) on a provably infinite standard coefficient,
    ("ok", flag) when every standard coefficient in the band is bounded
    (flag is 'yes' if all are infinitesimal, 'no' otherwise), or None when
    undecided.  ``psi2`` is ``|psi|^2``; a band above every standard degree
    is ("ok", "yes").
    """
    if psi2.is_zero() or (t.lo is not None and t.lo.infinite):
        return ("ok", "yes")
    psi_key = class_key_of_square(psi2)
    if psi_key is None:
        return None
    # the standard degrees in the band: start <= m <= last
    start = 0 if t.lo is None else t.lo.finite_value + 1
    last = math.inf if t.hi.infinite else t.hi.finite_value
    if t.eps.is_zero():
        # eps^m kills every m >= 1; only m = 0 can contribute
        first = 0 if start == 0 and t.phi_at(0) != 0 else None
    else:
        eps_key = class_key_of_square(t.eps * t.eps)
        if eps_key is None:
            return None
        if eps_key != UNIT_CLASS:
            flag = "yes"
            for m in range(start, start + 512):
                if m > last:
                    return ("ok", flag)
                if t.phi_at(m) != 0:
                    key = (psi_key[0] + m * eps_key[0],
                           psi_key[1] * eps_key[1] ** m,
                           psi_key[2] + m * eps_key[2])
                    if key > UNIT_CLASS:
                        return ("unbounded", m)
                    if key == UNIT_CLASS:
                        flag = "no"
                    elif eps_key < UNIT_CLASS:
                        return ("ok", flag)  # keys strictly decrease from here on
            return None
        # |eps| appreciable: the class is the same at every live degree
        first = next((m for m in range(start, start + 256)
                      if m <= last and t.phi_at(m) != 0), None)
        if first is None and start + 256 <= last and not all(f.is_zero() for f in t.phi):
            return None  # the search ended before the band did
    if first is None:
        return ("ok", "yes")
    if psi_key > UNIT_CLASS:
        return ("unbounded", first)
    return ("ok", "yes" if psi_key < UNIT_CLASS else "no")


# ---------------------------------------------------------------------------
# the evaluation oracle
# ---------------------------------------------------------------------------

def _rational_circle_points(count: int, seed: int) -> list[tuple[Fraction, Fraction]]:
    """Deterministic low-discrepancy rational points exactly on the unit circle.

    Uses the tangent-half-angle parametrization at a golden-ratio-like
    rational stream, so coordinates are exact rationals of modest height: at
    half-angle tangent ``t/610`` the point is ``((610^2 - t^2)/d, 2*610*t/d)``
    with ``d = 610^2 + t^2``, each coordinate one ``Fraction`` of two integers.
    """
    pts = []
    p_num, p_den = 377, 610  # convergent of the golden ratio
    sq = p_den * p_den
    acc = seed % p_den
    for _ in range(count):
        acc = (acc + p_num) % p_den
        t = 2 * acc - p_den  # the tangent in (-1, 1), times p_den
        d = sq + t * t
        pts.append((Fraction(sq - t * t, d), Fraction(2 * p_den * t, d)))
    return pts


def _oracle_points(n: int, R: Fraction, sample_count: int, seed: int) -> list[tuple]:
    """The oracle's sample points in C^n: the two distinguished points first
    (growth shows on the positive axis), then scaled rational circle points."""
    points: list[tuple[tuple[Fraction, Fraction], ...]] = [
        tuple((R, Q(0)) for _ in range(n)),
        tuple((Q(1), Q(0)) for _ in range(n)),
    ]
    for j, (c, s) in enumerate(_rational_circle_points(sample_count, seed)):
        scale = R if j % 2 == 0 else R * Fraction(j % 5 + 1, 5)
        points.append(tuple(
            ((c * scale, s * scale) if (j + var) % 2 == 0 else (s * scale, -c * scale))
            for var in range(n)
        ))
    return points


class OracleReport(Record, frozen=True):
    __slots__ = ("bounded", "infinitesimal", "witness", "radius")
    def __init__(self, bounded: Verdict, infinitesimal: Verdict,
                 witness: Optional[tuple] = None, radius: Fraction = Q(1)):
        _set(self, "bounded", bounded)
        _set(self, "infinitesimal", infinitesimal)
        _set(self, "witness", witness)
        _set(self, "radius", radius)

    def to_json(self):
        return {
            "bounded": self.bounded.to_json(),
            "infinitesimal": self.infinitesimal.to_json(),
            "witness": None if self.witness is None else [str(c) for c in self.witness],
            "radius": str(self.radius),
        }


def sampling_oracle(
    p: InternalPolynomial,
    sample_count: int = 16,
    radius=1,
    horizon: int = HORIZON,
    seed: int = 0,
) -> OracleReport:
    """Evaluate the polynomial at sampled bounded points across the window.

    The window ``P_1 .. P_horizon`` is read as the polynomial's integer rows
    (Gaussian-integer numerators over one denominator per index, kept by the
    polynomial across calls); every point is evaluated exactly in integers.
    The verdicts compare each value ``|P_i(pt)|^2`` as an integer pair
    ``(re^2 + im^2, den^2)`` by cross-multiplication; only the reported
    maximum becomes a ``Fraction``.

    A ``Fails`` verdict on boundedness is conclusive evidence: it names a
    witness point whose value sequence grows without bound.  ``Holds`` is
    evidence at this radius only.  The verdicts read the last quarter of the
    materialized window; when it holds fewer than two values there is no
    growth ratio, so both verdicts are then ``Undetermined``.
    """
    R = Q(radius)
    if R <= 0:
        raise ValueError("radius must be a positive rational")
    if sample_count < 1:
        raise ValueError("need at least one sample")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    points = _oracle_points(p.n, R, sample_count, seed)

    # fully explicit symbolic polynomials evaluate to classifiable sequences:
    # an exact infinite value at any sampled point is a conclusive witness
    if isinstance(p, StructuredPoly) and not p.tails and not p.tops:
        for pt in points[:4]:
            hpt = [HyperComplex.from_rational(c[0], c[1]) for c in pt]
            val = poly_eval(p, hpt)
            cls = val.classify()
            if cls.label == INFINITE:
                return OracleReport(
                    Verdict(FAILS, 1, f"symbolic: value at witness point is infinite"),
                    Verdict(FAILS, 1, "value infinite at a sampled point"),
                    pt,
                    R,
                )

    rows = []
    for i in range(1, horizon + 1):
        try:
            rows.append(p.row(i))
        except ZeroDivisionError:
            continue
    if len(rows) - 3 * len(rows) // 4 < 2:
        short = Verdict(UNDETERMINED, horizon,
                        "too few materialized indices for a growth ratio")
        return OracleReport(short, short, None, R)
    (tn, td), (gn, gd) = _TOL_SQ, _GROWTH_SQ

    worst_growth: Optional[tuple] = None
    all_small = True
    bn, bd = 0, 1  # the largest |P|^2 seen, as bn / bd
    for pt in points:
        seq = [(re * re + im * im, den * den) for re, im, den in evaluate(rows, pt)]
        for N, M in seq:
            if N * bd > bn * M:
                bn, bd = N, M
        quarter = seq[3 * len(seq) // 4:]
        if not all(N * td < tn * M for N, M in quarter):
            all_small = False
        pairs = [(a, b) for a, b in zip(quarter, quarter[1:]) if a[0] > 0]
        if pairs and all(N1 * M0 * gd > gn * N0 * M1 for (N0, M0), (N1, M1) in pairs):
            worst_growth = pt
            break  # one conclusive witness point is enough
    if worst_growth is not None:
        bounded = Verdict(FAILS, horizon,
                          f"value sequence grows at sampled point (radius {R})")
        infl = Verdict(FAILS, horizon, "grows at a sampled point")
        return OracleReport(bounded, infl, worst_growth, R)
    bounded = Verdict(HOLDS, 1, f"max |P|^2 = {float(Q(bn, bd)):.6g} over window at radius {R}")
    if all_small:
        infl = Verdict(HOLDS, 1, "all sampled value sequences vanish within tolerance")
    else:
        infl = Verdict(FAILS, 1, "some sampled value stays appreciable")
    return OracleReport(bounded, infl, None, R)


# ---------------------------------------------------------------------------
# Cauchy coefficient recovery
# ---------------------------------------------------------------------------

def _torus_values(
    p: InternalPolynomial, radius: float, at_index: int, nodes: Optional[int] = None
) -> tuple[dict, list, dict]:
    """Materialize P_i and evaluate it at every node of the M^n torus grid.

    Refuses ``nodes`` up to the per-variable degree ``deg`` of P_i before any
    evaluation; by default ``nodes`` is ``max(16, 2 * deg + 5)``.
    """
    import itertools as _it

    mat = p.materialize(at_index)
    deg = max((max(mu) for mu in mat), default=0)
    if nodes is None:
        nodes = max(16, 2 * deg + 5)
    elif nodes <= deg:
        raise ValueError(f"need more than deg = {deg} nodes, got {nodes}")
    roots = [cmath.exp(2j * cmath.pi * k / nodes) for k in range(nodes)]
    values = {}
    for js in _it.product(range(nodes), repeat=p.n):
        xi = tuple(radius * roots[j] for j in js)
        val = 0j
        for mu, c in mat.items():
            term = complex(c[0], c[1])
            for t, e in enumerate(mu):
                if e:
                    term *= xi[t] ** e
            val += term
        values[js] = val
    return mat, roots, values


def _trapezoid(values: dict, roots: list, nodes: int, nu: tuple, n: int, R: float) -> complex:
    """Trapezoidal sum of P(xi) xi^(-nu) over the torus, scaled to a_nu."""
    total = 0j
    for js, val in values.items():
        phase = 1.0 + 0j
        for t, j in enumerate(js):
            phase *= roots[(-j * nu[t]) % nodes]
        total += val * phase
    return total / (nodes ** n * R ** mi_total(nu))


def cauchy_all_coefficients(
    p: InternalPolynomial, radius, at_index: int, nodes: int
) -> dict[tuple, complex]:
    """Trapezoidal recovery of every materialized coefficient at one index.

    One torus evaluation pass is shared across all coefficients; exact up to
    rounding once ``nodes`` exceeds the per-variable degree.
    """
    R = float(radius)
    mat, roots, values = _torus_values(p, R, at_index, nodes)
    return {nu: _trapezoid(values, roots, nodes, nu, p.n, R) for nu in mat}


def coefficient_bound_check(
    p: InternalPolynomial,
    radius,
    at_index: int,
) -> dict:
    """Max-modulus bound M_R on the torus and the list of violating indices.

    Checks |a_nu| <= M_R / R^|nu| for every materialized coefficient; the
    list should be empty up to a quadrature slack of 1e-8.
    """
    R = float(radius)
    mat, _, values = _torus_values(p, R, at_index)
    m_r = max((abs(v) for v in values.values()), default=0.0)
    violations = []
    for mu, c in mat.items():
        lhs = abs(complex(c[0], c[1]))
        if lhs > m_r / (R ** mi_total(mu)) + 1e-8:
            violations.append(mu)
    return {"M_R": m_r, "violations": violations, "radius": R, "index": at_index}
