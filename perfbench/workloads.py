"""The four benchmark workloads, built on the public API of ``hyperpoly``.

A workload is set up from a seed and then yields an endless stream of
``Item``s; the worker runs them one after another (a closed loop with one
caller).  Every item checks its own output and returns ``None`` when the
check holds or a one-line reason when it does not.  Inputs are generated
outside the items, so item latency is the program's work plus its check.

Functions of the package are always reached through their module
(``classify.classify_poly``), never bound here by ``from ... import``, so
the traced run sees every call.

Why these four (each stresses a different layer):

* ``oracle-family``: classifier plus sampling-oracle cross-examination
  (criterion 1).  Dominated by the oracle's exact window evaluation.
* ``st-pairs``: standard parts of sums and products (criterion 2).
  Dominated by ``IndexExpr`` form arithmetic under ``ProductPoly.coeff``.
* ``exact-finite``: explicit finite-degree polynomials (criteria 4, 6, 7,
  8): derivatives, ``FieldPoly`` evaluation, torus quadrature, no oracle.
* ``cli-corpus``: the README commands through ``hyperpoly.cli.main``, in
  process and as fresh subprocesses.  Dominated by import, argparse,
  parse/bind and JSON output; the only reach into ``roots``, ``filters``
  and ``poly_eval``.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Iterator, Optional

from hyperpoly import (
    classify,
    cli,
    completion,
    families,
    genpoint,
    hypernat,
    hypernum,
    interpoly,
    leibniz,
    stdpart,
)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden", "cli.json")

# The lift command reads this tower (truncations of a bivariate polynomial).
TOWER_LEVELS = ["1", "1 + X - Y", "1 + X - Y + X*Y/2", "1 + X - Y + X*Y/2 - X^3/6"]


@dataclass
class Item:
    """One unit of closed-loop work; ``props`` describe its input for the
    composition record."""

    kind: str
    props: dict
    run: Callable[[], Optional[str]]


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass ``k``: the workload seed itself for the first pass."""
    return seed if k == 0 else random.Random(f"{seed}:{k}").randrange(2**31)


def drain(items: list) -> Iterator:
    """Yield each element and drop the list's reference to it, so a finished
    item's objects (and their caches) are freed rather than held to the end."""
    items.reverse()
    while items:
        yield items.pop()


def poly_props(p) -> dict:
    return {
        "variables": "univariate" if p.n == 1 else "multivariate",
        "bands_or_tops": bool(p.tails or p.tops),
    }


# ---------------------------------------------------------------------------
# oracle-family (criterion 1)
# ---------------------------------------------------------------------------

class OracleFamily:
    size = 200

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.counts = {"unbounded_oracle_calls": 0, "unbounded_witnesses": 0}
        self.first = families.labeled_family(seed, self.size)

    def items(self) -> Iterator[Item]:
        k = 0
        while True:
            fam = self.first if k == 0 else families.labeled_family(
                pass_seed(self.seed, k), self.size)
            for label, poly in drain(fam):
                props = {"label": label, **poly_props(poly)}
                yield Item("member", props, lambda l=label, p=poly: self.check(l, p))
            k += 1

    def check(self, label: str, poly) -> Optional[str]:
        got = classify.classify_poly(poly).verdict
        if got != label:
            return f"classified {got}, labeled {label}"
        if label == classify.UNBOUNDED:
            for radius in (1, 2, 3, 4):
                rep = classify.sampling_oracle(
                    poly, sample_count=4, radius=radius, horizon=24, seed=7)
                self.counts["unbounded_oracle_calls"] += 1
                if rep.bounded.fails():
                    self.counts["unbounded_witnesses"] += 1
                    return None
            return "no oracle witness at radii 1..4"
        for radius in (1, 4):
            rep = classify.sampling_oracle(
                poly, sample_count=4, radius=radius, horizon=16, seed=7)
            if rep.bounded.fails():
                return f"bounded verdict refuted at radius {radius}"
        return None


# ---------------------------------------------------------------------------
# st-pairs (criterion 2)
# ---------------------------------------------------------------------------

class StPairs:
    size = 100

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.counts: dict = {}
        self.first = [families.random_bounded_pair(self.rng) for _ in range(self.size)]

    def items(self) -> Iterator[Item]:
        pairs = drain(self.first)
        while True:
            p, q = next(pairs, None) or families.random_bounded_pair(self.rng)
            props = {
                "variables": "univariate" if p.n == 1 else "multivariate",
                "bands_or_tops": bool(p.tails or p.tops or q.tails or q.tops),
            }
            yield Item("pair", props, lambda p=p, q=q: self.check(p, q))

    @staticmethod
    def check(p, q) -> Optional[str]:
        sp, sq = stdpart.st_poly(p), stdpart.st_poly(q)
        if not stdpart.st_poly(interpoly.poly_add(p, q)).eq_to_order(sp + sq, 12):
            return "st(p + q) != st(p) + st(q) to order 12"
        if not stdpart.st_poly(interpoly.poly_mul(p, q)).eq_to_order(sp * sq, 12):
            return "st(p * q) != st(p) * st(q) to order 12"
        return None


# ---------------------------------------------------------------------------
# exact-finite (criteria 4, 6, 7, 8)
# ---------------------------------------------------------------------------

def _explicit_poly(rng: random.Random, max_deg: int = 5):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        coeffs[(rng.randint(0, max_deg),)] = hypernum.HyperComplex.from_rational(
            Q(rng.randint(-5, 5), rng.randint(1, 3)))
    return interpoly.StructuredPoly(1, hypernat.HyperNatural.constant(max_deg), coeffs)


class ExactFinite:
    """One pass holds every group below; groups are interleaved round-robin
    so that a run cut mid-pass still sees the same mix of shapes."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.counts: dict = {}
        self.first = self.make_pass(0)

    def items(self) -> Iterator[Item]:
        k = 0
        while True:
            yield from drain(self.first if k == 0 else self.make_pass(k))
            k += 1

    def make_pass(self, k: int) -> list[Item]:
        rng = random.Random(pass_seed(self.seed, k))
        groups = [
            self.c7_derivation(rng), self.c7_phi(rng), self.c7_factor(rng),
            self.c6_c4(rng), self.c8(rng),
        ]
        out = []
        while any(groups):
            for g in groups:
                if g:
                    out.append(g.pop(0))
        return out

    # -- criterion 7 ---------------------------------------------------------
    def c7_derivation(self, rng) -> list[Item]:
        def check(f, g):
            if not leibniz.derivation_check(f, g).holds():
                return "derivation check failed"
            if not leibniz.taylor_identity_check(f).holds():
                return "Taylor identity failed"
            return None

        pairs = [(_explicit_poly(rng), _explicit_poly(rng)) for _ in range(100)]
        return [Item("c7-derivation", {"variables": "univariate"},
                     lambda f=f, g=g: check(f, g)) for f, g in pairs]

    def c7_phi(self, rng) -> list[Item]:
        def check(f, g):
            p = leibniz.delta(f) * leibniz.delta(g)
            if not leibniz.phi(p).is_zero_to_order(8):
                return "phi of a product in I*I is not zero"
            if not leibniz.in_I2(p).holds():
                return "product of two elements of I not in I^2"
            return None

        pairs = [(_explicit_poly(rng), _explicit_poly(rng)) for _ in range(100)]
        return [Item("c7-phi", {"variables": "univariate"},
                     lambda f=f, g=g: check(f, g)) for f, g in pairs]

    def c7_factor(self, rng) -> list[Item]:
        def check(p):
            verdict = classify.classify_poly(p).verdict
            if verdict != classify.INFINITESIMAL:
                # every candidate is built infinitesimal, so any other
                # verdict is a wrong one (oracle-family counts it so too)
                return f"infinitesimal candidate classified {verdict}"
            eps, q = leibniz.infinitesimal_factor(p)
            if leibniz.classify_scaled(eps).verdict != classify.INFINITESIMAL:
                return "eps factor not infinitesimal"
            if leibniz.classify_scaled(q).verdict != classify.INFINITESIMAL:
                return "cofactor not infinitesimal"
            chain = leibniz.factor_chain(p, 2)
            if not (chain.exponent_identity() and chain.verify_at(range(1, 9))):
                return "factor chain identity failed"
            return None

        polys = [families.make_infinitesimal(rng) for _ in range(50)]
        return [Item("c7-factor", poly_props(p), lambda p=p: check(p)) for p in polys]

    # -- criteria 6 and 4 ----------------------------------------------------
    # One item lifts one tower and recovers one polynomial's coefficients.
    def c6_c4(self, rng) -> list[Item]:
        def lift(tower, horizon):
            lifted = completion.lift_tower(tower, horizon=horizon)
            return None if lifted.check_congruences() else "lift congruences fail"

        def recover(p, deg):
            mat = p.materialize(1)
            if not mat:
                return None
            per_var = max(max(nu) for nu in mat)
            nodes = max(deg + 4, per_var + 1)
            got = classify.cauchy_all_coefficients(p, 1, at_index=1, nodes=nodes)
            for nu, c in mat.items():
                want = complex(c[0], c[1])
                if abs(got[nu] - want) > 1e-8 * max(1.0, abs(want)):
                    return f"coefficient {nu} recovered as {got[nu]}, want {want}"
            if classify.coefficient_bound_check(p, 1, at_index=1)["violations"]:
                return "Cauchy bound violated"
            return None

        def surjective(K):
            rep = completion.finite_field_surjectivity_check(2, 1, K)
            ok = rep["bijective"] and rep["residues"] == 2 ** (K + 1)
            return None if ok else f"F2 lift not bijective at depth {K}"

        towers = []
        for _ in range(50):
            K = rng.randint(1, 8)
            n = rng.choice((1, 2))
            full = {}
            for m in range(K + 1):
                for nu in interpoly.multi_indices_of_degree(n, m):
                    if rng.random() < 0.5:
                        full[nu] = Q(rng.randint(-9, 9), rng.randint(1, 4))
            top = completion.FieldPoly.make("Q", n, full)
            towers.append((completion.ResidueTower.make(
                "Q", n, [top.truncate(k) for k in range(K + 1)]), K + rng.randint(0, 4)))
        polys = []
        for _ in range(50):
            n = rng.choice((1, 2))
            deg = rng.randint(1, 10)
            coeffs = {}
            for _ in range(rng.randint(2, 6)):
                if n == 1:
                    nu = (rng.randint(0, deg),)
                else:
                    a = rng.randint(0, deg)
                    nu = (a, rng.randint(0, deg - a))
                coeffs[nu] = hypernum.HyperComplex.from_rational(
                    Q(rng.randint(-9, 9), rng.randint(1, 3)), Q(rng.randint(-3, 3)))
            polys.append((interpoly.StructuredPoly(
                n, hypernat.HyperNatural.constant(deg), coeffs), deg))
        items = [Item("c6-lift+c4-cauchy", poly_props(p),
                      lambda t=t, h=h, p=p, d=d: lift(t, h) or recover(p, d))
                 for (t, h), (p, d) in zip(towers, polys)]
        return items + [Item("c6-surjectivity", {"variables": "univariate"},
                             lambda K=K: surjective(K)) for K in range(5)]

    # -- criterion 8 ---------------------------------------------------------
    # Item i computes the points at index i (the line up to the embedding
    # horizon 64; the plane and the halo up to 20); then the separation of 50
    # residues is checked one residue's pairs per item, so no single item
    # carries the point search.
    def c8(self, rng) -> list[Item]:
        line = genpoint.generic_point(
            genpoint.Parametrization.line(), lambda: genpoint.integer_poly_corpus(1, 3))
        zy = genpoint.Parametrization.from_polys(
            [genpoint.qpoly(1, {(1,): 1}), genpoint.qpoly(1, {})])
        plane = genpoint.generic_point(zy, lambda: genpoint.integer_poly_corpus(2, 2))
        y_poly = genpoint.qpoly(2, {(0, 1): 1})
        halo = genpoint.generic_point(
            genpoint.Parametrization.line(), lambda: genpoint.integer_poly_corpus(1, 3),
            halo_center=(0,))

        def points(i):
            avoid = [e for e in line.log(i) if e.kind == "avoidance"]
            if len(avoid) < i or not all(e.margin_squared > 0 for e in avoid):
                return f"line point {i} does not avoid its first {i} constraints"
            if i > 20:
                return None
            if y_poly.eval_at(plane.point(i)) != 0:
                return f"plane point {i} leaves Z(Y)"
            if len([e for e in plane.log(i) if e.kind == "avoidance"]) != i:
                return f"plane point {i} has the wrong avoidance count"
            (ti,) = halo.point(i)
            return None if abs(ti) <= Q(1, i) else f"halo point {i} is {ti}"

        exps = sorted(rng.sample(range(1, 81), 50))
        residues = [genpoint.qpoly(1, {(k,): 1}) for k in exps]

        def separated(a):
            for b in range(a + 1, len(residues)):
                v = genpoint.evaluation_embedding_check(
                    line, [residues[a], residues[b]], horizon=64)
                if not v.holds():
                    return f"X^{exps[a]} and X^{exps[b]} not separated: {v}"
            return None

        props = {"variables": "univariate"}
        return ([Item("c8-points", props, lambda i=i: points(i)) for i in range(1, 65)]
                + [Item("c8-separation", props, lambda a=a: separated(a))
                   for a in range(len(residues) - 1)])


# ---------------------------------------------------------------------------
# cli-corpus (README commands; criterion 10's determinism, against goldens)
# ---------------------------------------------------------------------------

CORPUS = {
    "classify-exp": ["classify", "sum(k=0..d, X^k/k!)", "--d", "i"],
    "classify-eps": ["classify", "eps := 1/i; eps*X"],
    "classify-geometric": ["classify", "sum(k=0..d, X^k)", "--d", "i", "--radius", "3"],
    "stdpart": ["stdpart", "(1 + 1/i)*X", "--order", "4"],
    "zeros": ["zeros", "sum(k=0..d, X^k/k!) - 2", "--d", "i", "--radius", "2",
              "--indices", "10,20,40"],
    "eval": ["eval", "sum(k=0..d, X^k)", "--d", "i", "--at", "2"],
    "delta": ["delta", "X^2"],
    "phi": ["phi", "2*X*dX + dX^2"],
    "derivation-check": ["derivation-check", "X", "X*X"],
    "lift": ["lift", "--field", "q", "--levels", "tower.json"],
    "generic": ["generic", "--param", "t -> (t, 0)", "--corpus", "heights:3",
                "--indices", "1..20"],
    "kochen": ["kochen", "--index-size", "3", "--field", "2", "--enumerate"],
}


def write_tower(workdir: str) -> None:
    with open(os.path.join(workdir, "tower.json"), "w", encoding="utf-8") as fh:
        json.dump(TOWER_LEVELS, fh)


def cold_command(name: str, src: str, workdir: str) -> tuple[int, bytes]:
    """Run one corpus command as a fresh ``python -m hyperpoly.cli``."""
    env = {k: v for k, v in os.environ.items() if k != "HYPERPOLY_HORIZON"}
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-m", "hyperpoly.cli", *CORPUS[name]],
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=120, check=False,
    )
    return proc.returncode, proc.stdout


class CliCorpus:
    """Each pass runs every command in process, in a seeded order (the timed
    items).  ``cold_pass`` runs every command once as a fresh subprocess."""

    def __init__(self, seed: int, workdir: str, golden: Optional[dict] = None):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.src = os.path.join(os.path.dirname(HERE), "src")
        self.counts: dict = {}
        if golden is None:
            with open(GOLDEN_PATH, encoding="utf-8") as fh:
                golden = json.load(fh)
        self.golden = golden
        write_tower(workdir)
        # the golden copies were captured without it
        os.environ.pop("HYPERPOLY_HORIZON", None)

    def items(self) -> Iterator[Item]:
        while True:
            order = sorted(CORPUS)
            self.rng.shuffle(order)
            for name in order:
                yield Item(name, {"command": CORPUS[name][0]},
                           lambda n=name: self.compare(n, *self.in_process(n)))

    def cold_pass(self) -> list[Item]:
        return [Item(name, {"command": CORPUS[name][0]},
                     lambda n=name: self.compare(n, *cold_command(n, self.src, self.workdir)))
                for name in sorted(CORPUS)]

    @staticmethod
    def in_process(name: str) -> tuple[int, bytes]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(CORPUS[name]))
        return code, buf.getvalue().encode("utf-8")

    def compare(self, name: str, code: int, out: bytes) -> Optional[str]:
        want = self.golden[name]
        if code != want["exit"]:
            return f"{name}: exit {code}, golden {want['exit']}"
        if out != want["stdout"].encode("utf-8"):
            return f"{name}: stdout differs from the golden copy"
        return None


WORKLOADS = {
    "oracle-family": OracleFamily,
    "st-pairs": StPairs,
    "exact-finite": ExactFinite,
    "cli-corpus": CliCorpus,
}
