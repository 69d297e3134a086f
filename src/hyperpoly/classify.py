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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .config import Config, DEFAULT
from .exacteval import evaluate, integer_form
from .hypernum import (
    APPRECIABLE,
    BOUNDED_UNCLASSIFIED,
    INFINITE,
    INFINITESIMAL,
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
from .verdicts import FAILS, HOLDS, UNDETERMINED, Verdict

Q = Fraction

BOUNDED = "bounded"
UNBOUNDED = "unbounded"
# INFINITESIMAL / UNDECIDED reused from hypernum

# extended "limit of a root test factor" values
_ZERO, _POS, _INF, _UNK = "zero", "pos", "inf", "unknown"


@dataclass(frozen=True)
class Certificate:
    kind: str                      # root-test | sample | finite-degree | propagated
    details: tuple = field(default=())
    symbolic: bool = True

    def to_json(self):
        return {"kind": self.kind, "details": [str(d) for d in self.details],
                "symbolic": self.symbolic}


@dataclass(frozen=True)
class PolyClass:
    verdict: str                   # bounded | infinitesimal | unbounded | undetermined
    certificate: Certificate
    infinitesimal: str = "unknown"   # yes | no | unknown (within bounded verdicts)

    @property
    def bounded(self) -> bool:
        return self.verdict in (BOUNDED, INFINITESIMAL)

    def to_json(self):
        return {
            "verdict": self.verdict,
            "infinitesimal": self.infinitesimal,
            "certificate": self.certificate.to_json(),
        }


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
    cert = Certificate("propagated", (a.verdict, b.verdict),
                       a.certificate.symbolic and b.certificate.symbolic)
    if a.bounded and b.bounded:
        if INFINITESIMAL in (a.verdict, b.verdict):
            return PolyClass(INFINITESIMAL, cert, "yes")
        flag = "no" if (a.infinitesimal, b.infinitesimal) == ("no", "no") else "unknown"
        return PolyClass(BOUNDED, cert, flag)
    return PolyClass(UNDECIDED, cert)


def _classify_structured(p: StructuredPoly) -> PolyClass:
    symbolic = True
    inf_flag = "yes"
    undecided: list[str] = []

    # clause (i) at explicitly listed standard indices
    for nu, c in sorted(p.explicit.items()):
        label = c.classify().label
        symbolic = symbolic and c.symbolic
        if label == INFINITE:
            return PolyClass(
                UNBOUNDED,
                Certificate("root-test", (f"clause i fails: coefficient at {nu} is infinite",),
                            c.symbolic),
                "no",
            )
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

    # moving top monomials (univariate): root test at |nu| = d - offset
    for t in p.tops:
        res = _classify_top(p, t, any(live))
        if res is not None:
            return res

    # coefficient bands: clause (i) on the standard degrees, then clause (ii)
    for t, psi2, r, t_live in zip(p.tails, squares, rays, live):
        walk = _band_key_walk(p, t, psi2)
        if walk is not None and walk[0] == "unbounded":
            return PolyClass(
                UNBOUNDED,
                Certificate("root-test",
                            (f"clause i fails: band coefficient at |nu| = {walk[1]} is infinite",)),
                "no",
            )
        isolated = not any(u_live for u, u_live in zip(p.tails, live) if u is not t)
        if isolated and any(v in (_POS, _INF) for v in r or ()):
            return PolyClass(
                UNBOUNDED,
                Certificate(
                    "root-test",
                    ("clause ii fails: band root test has a nonzero limit on a ray",),
                ),
                "no",
            )
        if walk is None:
            undecided.append("band finite-range class undecided")
        elif walk[1] == "no":
            inf_flag = "no"
        if t_live:
            undecided.append("band root test undecided")

    if undecided:
        return PolyClass(
            UNDECIDED, Certificate("root-test", tuple(undecided), symbolic)
        )
    if inf_flag == "yes":
        return PolyClass(
            INFINITESIMAL,
            Certificate("root-test", ("all standard coefficients infinitesimal; "
                                      "root test vanishes on both rays",), symbolic),
            "yes",
        )
    return PolyClass(
        BOUNDED,
        Certificate("root-test", ("clauses i and ii hold",), symbolic),
        inf_flag,
    )


def _classify_top(p: StructuredPoly, t, shared: bool) -> Optional[PolyClass]:
    """Moving monomial c(i) X^(d_i - offset): decide its root-test limit.

    ``shared`` says whether some band is live on the infinite range.
    """
    c = t.coeff
    if not c.symbolic:
        return PolyClass(
            UNDECIDED, Certificate("root-test", ("numeric top coefficient",), False)
        )
    if c.is_zero_expr():
        return None
    if not p.degree.infinite:
        # a plain standard coefficient; fold into clause (i)
        if c.classify().label == INFINITE:
            return PolyClass(
                UNBOUNDED,
                Certificate("root-test", ("clause i fails: top coefficient infinite",)),
                "no",
            )
        return None
    key = class_key_of_square(c.modulus_squared_expr())
    if key is None:
        return PolyClass(
            UNDECIDED, Certificate("root-test", ("top coefficient class undecided",))
        )
    k2 = key[0]
    if k2 < 0:
        return None  # |c|^(1/d) -> 0: compatible with bounded
    # k2 >= 0: |c(i)|^(1/d_i) tends to a positive constant or diverges, and
    # factorial growth can never be cancelled by another band in this form
    if shared:
        return PolyClass(
            UNDECIDED,
            Certificate("root-test", ("top coefficient and band share the infinite range",)),
        )
    v = "oo" if k2 > 0 else f"({key[1]})^(1/{2 * p.degree.slope})"
    return PolyClass(
        UNBOUNDED,
        Certificate(
            "root-test",
            (f"clause ii fails: top coefficient root test -> {v} > 0",),
        ),
        "no",
    )


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
    if t.hi is not None:
        if Fraction(t.hi.slope) < ray_slope:
            return False
    return True


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


def _band_key_walk(p: StructuredPoly, t: TailTerm, psi2: IndexExpr):
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
    last = min((b.finite_value for b in (t.hi, p.degree) if b is not None and not b.infinite),
               default=math.inf)
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
    rational stream, so coordinates are exact rationals of modest height.
    """
    pts = []
    p_num, p_den = 377, 610  # convergent of the golden ratio
    acc = seed % p_den
    for _ in range(count):
        acc = (acc + p_num) % p_den
        u = Fraction(acc, p_den)
        tval = 2 * u - 1  # in (-1, 1)
        d = 1 + tval * tval
        pts.append(((1 - tval * tval) / d, 2 * tval / d))
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


@dataclass(frozen=True)
class OracleReport:
    bounded: Verdict
    infinitesimal: Verdict
    witness: Optional[tuple] = None
    radius: Fraction = Q(1)

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
    horizon: int = DEFAULT.horizon,
    seed: int = 0,
    config: Config = DEFAULT,
) -> OracleReport:
    """Evaluate the polynomial at sampled bounded points across the window.

    The window ``P_1 .. P_horizon`` is materialized once per call and held as
    Gaussian-integer numerators over one denominator per index; every point
    is then evaluated exactly in integers, and each value ``|P_i(pt)|^2``
    becomes one ``Fraction``.

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
    if (
        isinstance(p, StructuredPoly)
        and not p.tails
        and not p.tops
        and p.is_symbolic()
    ):
        for pt in points[:4]:
            hpt = [HyperComplex.from_rational(c[0], c[1]) for c in pt]
            val = poly_eval(p, hpt)
            cls = val.classify(config)
            if cls.label == INFINITE:
                return OracleReport(
                    Verdict(FAILS, 1, f"symbolic: value at witness point is infinite"),
                    Verdict(FAILS, 1, "value infinite at a sampled point"),
                    pt,
                    R,
                )

    mats = []
    for i in range(1, horizon + 1):
        try:
            mats.append(p.materialize(i))
        except ZeroDivisionError:
            continue
    if len(mats) - 3 * len(mats) // 4 < 2:
        short = Verdict(UNDETERMINED, horizon,
                        "too few materialized indices for a growth ratio")
        return OracleReport(short, short, None, R)
    window = integer_form(mats, p.n)
    tol2 = Q(config.infinitesimal_tol) ** 2
    growth2 = Q(config.growth_ratio) ** 2

    worst_growth: Optional[tuple] = None
    all_small = True
    bound_seen = Q(0)
    for pt in points:
        seq = [Q(re * re + im * im, den * den) for re, im, den in evaluate(window, pt)]
        bound_seen = max(bound_seen, max(seq))
        quarter = seq[3 * len(seq) // 4:]
        if not all(v < tol2 for v in quarter):
            all_small = False
        pairs = [(q0, q1) for q0, q1 in zip(quarter, quarter[1:]) if q0 > 0]
        if pairs and all(q1 > growth2 * q0 for q0, q1 in pairs):
            worst_growth = pt
            break  # one conclusive witness point is enough
    if worst_growth is not None:
        bounded = Verdict(FAILS, horizon,
                          f"value sequence grows at sampled point (radius {R})")
        infl = Verdict(FAILS, horizon, "grows at a sampled point")
        return OracleReport(bounded, infl, worst_growth, R)
    bounded = Verdict(HOLDS, 1, f"max |P|^2 = {float(bound_seen):.6g} over window at radius {R}")
    if all_small:
        infl = Verdict(HOLDS, 1, "all sampled value sequences vanish within tolerance")
    else:
        infl = Verdict(FAILS, 1, "some sampled value stays appreciable")
    return OracleReport(bounded, infl, None, R)


# ---------------------------------------------------------------------------
# Cauchy coefficient recovery
# ---------------------------------------------------------------------------

def _torus_values(
    p: InternalPolynomial, radius: float, at_index: int, nodes: int
) -> tuple[dict, list, dict]:
    """Materialize P_i and evaluate it at every node of the M^n torus grid."""
    import itertools as _it

    mat = p.materialize(at_index)
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


def _per_variable_degree(mat: dict, n: int) -> int:
    deg = 0
    for mu in mat:
        deg = max(deg, max(mu))
    return deg


def _quadrature_values(
    p: InternalPolynomial, R: float, at_index: int, nodes: int
) -> tuple[dict, list, dict]:
    """Torus values for coefficient recovery; refuses too few nodes."""
    mat, roots, values = _torus_values(p, R, at_index, nodes)
    deg = _per_variable_degree(mat, p.n) if mat else 0
    if nodes <= deg:
        raise ValueError(f"need more than deg = {deg} nodes, got {nodes}")
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
    mat, roots, values = _quadrature_values(p, R, at_index, nodes)
    return {nu: _trapezoid(values, roots, nodes, nu, p.n, R) for nu in mat}


def cauchy_coefficient(
    p: InternalPolynomial,
    nu: tuple,
    radius,
    at_index: int,
    nodes: int,
) -> complex:
    """Tensor-product trapezoidal quadrature of P(xi)/xi^(nu+1) on the torus.

    Exact (up to rounding) once ``nodes`` exceeds the per-variable degree of
    the materialized polynomial; refuses otherwise, because exactness is the
    whole point of the trapezoidal rule on the torus.
    """
    R = float(radius)
    _, roots, values = _quadrature_values(p, R, at_index, nodes)
    return _trapezoid(values, roots, nodes, tuple(nu), p.n, R)


def coefficient_bound_check(
    p: InternalPolynomial,
    radius,
    at_index: int,
    nodes: Optional[int] = None,
    slack: float = 1e-8,
) -> dict:
    """Max-modulus bound M_R on the torus and the list of violating indices.

    Checks |a_nu| <= M_R / R^|nu| for every materialized coefficient; the
    list should be empty up to quadrature slack.
    """
    R = float(radius)
    if nodes is None:
        mat = p.materialize(at_index)
        deg = _per_variable_degree(mat, p.n) if mat else 0
        nodes = max(16, 2 * deg + 5)
    mat, _, values = _torus_values(p, R, at_index, nodes)
    m_r = max((abs(v) for v in values.values()), default=0.0)
    violations = []
    for mu, c in mat.items():
        lhs = abs(complex(c[0], c[1]))
        if lhs > m_r / (R ** mi_total(mu)) + slack:
            violations.append(mu)
    return {"M_R": m_r, "violations": violations, "radius": R, "index": at_index}
