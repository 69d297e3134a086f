"""The ``hyperpoly`` command line.

Each subcommand parses its expression arguments with the shared grammar,
dispatches into the computation modules, and returns one JSON report (schema
version 1) with its exit code; ``main`` alone prints the report on stdout.
Exit codes: 0 for decided verdicts, 2 when the answer is Undetermined, 1 for
errors.  All randomness flows from --seed; runs with the same arguments and
seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from .config import Config, default_config
from .classify import classify_poly, sampling_oracle
from .completion import FieldPoly, ResidueTower, lift_tower
from .filters import ProductRing, enumerate_filters, is_ultrafilter, kochen_ideal_to_filter
from .genpoint import (
    GridExhausted,
    Parametrization,
    RationalFunc,
    generic_point,
    integer_poly_corpus,
    qpoly,
)
from .hypernum import HyperComplex
from .leibniz import delta, derivation_check, in_I, phi as phi_map
from .parser import (
    BindError,
    Bindings,
    ParseError,
    bind_declarations,
    build_diff_element,
    build_poly,
    build_poly_in,
    build_sequence,
    free_names,
    parse,
    variable_map,
)
from .stdpart import st_poly, zero_set_compare
from .verdicts import UNDETERMINED

SCHEMA = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2


def _program_env(text: str, args) -> tuple:
    program = parse(text)
    env = bind_declarations(program)
    if args.d is not None:
        d_prog = parse(args.d)
        from .parser import build_hypernat

        env.hypernats["d"] = build_hypernat(d_prog.expression, env)
    elif "d" not in env.hypernats:
        from .hypernat import HyperNatural

        env.hypernats["d"] = HyperNatural.identity()
    return program, env


def _materialization_json(p, i: int) -> dict:
    return {
        ",".join(map(str, nu)): [str(c[0]), str(c[1])]
        for nu, c in sorted(p.materialize(i).items())
    }


def _cmd_classify(args, cfg: Config) -> tuple[dict, int]:
    program, env = _program_env(args.expr, args)
    p = build_poly(program.expression, env)
    cls = classify_poly(p)
    report = {"command": "classify", **cls.to_json()}
    if args.oracle or cls.verdict == "unbounded":
        # an explicit --horizon runs as given; the default window stays short
        horizon = cfg.horizon if args.horizon is not None else min(cfg.horizon, 32)
        rep = sampling_oracle(
            p, sample_count=args.samples, radius=args.radius,
            horizon=horizon, seed=args.seed, config=cfg,
        )
        report["oracle"] = rep.to_json()
    if args.dump_index is not None:
        report["materialized"] = {
            "index": args.dump_index,
            "coefficients": _materialization_json(p, args.dump_index),
        }
    return report, EXIT_UNDETERMINED if cls.verdict == "undetermined" else EXIT_OK


def _cmd_stdpart(args, cfg: Config) -> tuple[dict, int]:
    program, env = _program_env(args.expr, args)
    p = build_poly(program.expression, env)
    s = st_poly(p)
    return {"command": "stdpart", "series": s.to_json(args.order)}, EXIT_OK


def _cmd_zeros(args, cfg: Config) -> tuple[dict, int]:
    program, env = _program_env(args.expr, args)
    p = build_poly(program.expression, env)
    indices = _indices([int(t) for t in args.indices.split(",")])
    rep = zero_set_compare(p, Fraction(args.radius), indices, tol=args.tol)
    return {"command": "zeros", **rep.to_json()}, EXIT_OK


def _indices(indices: list[int]) -> list[int]:
    if min(indices) < 1:
        raise ValueError(f"--indices must be >= 1 (indices start at 1), got {min(indices)}")
    return indices


def _cmd_eval(args, cfg: Config) -> tuple[dict, int]:
    program, env = _program_env(args.expr, args)
    p = build_poly(program.expression, env)
    at = parse(args.at)
    x = HyperComplex.from_expr(build_sequence(at.expression, env))
    from .interpoly import poly_eval

    v = poly_eval(p, [x] * p.n)
    cls = v.classify(cfg)
    report = {
        "command": "eval",
        "classification": cls.to_json(),
        "window": [str(complex(v.value(i))) for i in (1, 2, 4, 8, 16)],
    }
    return report, EXIT_UNDETERMINED if cls.label == "undetermined" else EXIT_OK


def _cmd_delta(args, cfg: Config) -> tuple[dict, int]:
    program, env = _program_env(args.expr, args)
    f = build_poly(program.expression, env)
    d = delta(f)
    slices = {
        ",".join(map(str, mu)): {
            ",".join(map(str, nu)): [str(c[0]), str(c[1])]
            for nu, c in poly.materialize(4).items()
        }
        for mu, poly in sorted(d.slices.items())
    }
    return {"command": "delta", "slicesAtIndex4": slices}, EXIT_OK


def _cmd_phi(args, cfg: Config) -> tuple[dict, int]:
    program, env = _program_env(args.expr, args)
    p = build_diff_element(program.expression, env)
    verdict = in_I(p)
    report = {"command": "phi", "inI": verdict.to_json()}
    if not verdict.holds():
        return report, EXIT_UNDETERMINED if verdict.kind == UNDETERMINED else EXIT_ERROR
    report["form"] = phi_map(p).to_json(args.order)
    return report, EXIT_OK


def _cmd_derivation_check(args, cfg: Config) -> tuple[dict, int]:
    program_f, env_f = _program_env(args.f, args)
    program_g, env_g = _program_env(args.g, args)
    variables = variable_map([program_f.expression, program_g.expression])
    f = build_poly_in(program_f.expression, env_f, variables)
    g = build_poly_in(program_g.expression, env_g, variables)
    v = derivation_check(f, g)
    report = {"command": "derivation-check", "verdict": v.to_json()}
    return report, EXIT_OK if v.holds() else (
        EXIT_UNDETERMINED if v.kind == UNDETERMINED else EXIT_ERROR
    )


def _cmd_lift(args, cfg: Config) -> tuple[dict, int]:
    with open(args.levels, encoding="utf-8") as fh:
        level_texts = json.load(fh)
    if not isinstance(level_texts, list) or not all(isinstance(t, str) for t in level_texts):
        raise ValueError("--levels must hold a JSON list of polynomial strings")
    field = "Q" if args.field in ("q", "Q") else int(args.field)
    nodes = [parse(text).expression for text in level_texts]
    variables = variable_map(nodes)
    field_levels = [
        FieldPoly.make(field, len(variables), {} if node is None else _standard_coeffs(
            node, variables, f"tower level {text!r} mentions the index i; "
                             "levels are standard polynomials"))
        for text, node in zip(level_texts, nodes)
    ]
    tower = ResidueTower.make(field, len(variables), field_levels)
    lifted = lift_tower(tower, horizon=max(cfg.horizon, tower.depth))
    report = {
        "command": "lift",
        "depth": tower.depth,
        "congruencesExact": lifted.check_congruences(),
        "residueAtDepth": dict(
            (",".join(map(str, nu)), str(c))
            for nu, c in lifted.residue(tower.depth).coeffs
        ),
    }
    return report, EXIT_OK


def _cmd_generic(args, cfg: Config) -> tuple[dict, int]:
    param = _parse_param(args.param)
    height = int(args.corpus.split(":", 1)[1]) if ":" in args.corpus else 3
    halo = None
    if args.halo:
        halo = tuple(Fraction(t) for t in args.halo.split(","))
    point = generic_point(
        param, lambda: integer_poly_corpus(param.n, height), halo_center=halo
    )
    lo, hi = _indices([int(t) for t in args.indices.split("..")])
    if lo > hi:
        raise ValueError(f"--indices {args.indices} is an empty range")
    per_index = {}
    for i in range(lo, hi + 1):
        pt = point.point(i)
        per_index[str(i)] = {
            "point": [str(c) for c in pt],
            "log": [
                {"kind": e.kind, "constraint": e.description,
                 "marginSquared": None if e.margin_squared is None else str(e.margin_squared)}
                for e in point.log(i)
            ],
        }
    return {"command": "generic", "indices": per_index}, EXIT_OK


def _parse_param(text: str) -> Parametrization:
    """ 't -> (t, 0)' style parametrization strings (one parameter)."""
    if "->" not in text:
        raise BindError("parametrization must look like 't -> (expr, ..., expr)'")
    head, _, body = text.partition("->")
    pname = head.strip()
    body = body.strip()
    if body.startswith("(") and body.endswith(")"):
        coord_texts = _split_coords(body[1:-1])
    else:
        coord_texts = [body]
    coords = []
    for ct in coord_texts:
        coeffs = _standard_coeffs(
            parse(ct).expression, {pname: 0},
            f"coordinate {ct!r} mentions the index i; coordinates are standard polynomials")
        coords.append(RationalFunc.of(qpoly(1, coeffs)))
    return Parametrization(1, tuple(coords))


def _split_coords(text: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        if ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _standard_coeffs(node, variables: dict, mentions_i: str) -> dict:
    """The coefficients of a standard polynomial over ``variables``.

    A ``lift`` level or ``generic`` coordinate is read with the polynomial
    grammar and no bindings, at index 1; the index ``i`` is refused with the
    message ``mentions_i`` unless it is one of ``variables``.
    """
    if "i" in free_names(node) and "i" not in variables:
        raise BindError(mentions_i)
    poly = build_poly_in(node, Bindings.empty(), variables)
    return {nu: c[0] for nu, c in poly.materialize(1).items()}


def _cmd_kochen(args, cfg: Config) -> tuple[dict, int]:
    size = args.index_size
    if size < 0:
        raise ValueError(f"--index-size must be >= 0, got {size}")
    p = args.field
    ring = ProductRing.uniform(range(1, size + 1), p)
    ideals = ring.all_ideals()
    filters = enumerate_filters(range(1, size + 1))
    mapped = {}
    prime_to_ultra = True
    for ideal in ideals:
        f = kochen_ideal_to_filter(ring, list(ideal))
        mapped[f.members] = mapped.get(f.members, 0) + 1
        if ring.is_prime_ideal(ideal) != is_ultrafilter(f):
            prime_to_ultra = False
    bijective = (
        len(mapped) == len(ideals)
        and len(ideals) == len(filters)
        and all(v == 1 for v in mapped.values())
    )
    report = {
        "command": "kochen",
        "indexSize": size,
        "field": p,
        "ideals": len(ideals),
        "filters": len(filters),
        "bijective": bijective,
        "primesMatchUltrafilters": prime_to_ultra,
    }
    return report, EXIT_OK if bijective and prime_to_ultra else EXIT_ERROR


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyperpoly",
        description="hyperfinite-degree polynomial calculus over sequence-model "
                    "hypercomplex numbers",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--order", type=int, default=12)
        p.add_argument("--radius", type=Fraction, default=Fraction(1))
        p.add_argument("--samples", type=int, default=16)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--d", type=str, default=None,
                       help="hypernatural binding for the name 'd'")
        p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("classify", help="boundedness class of an internal polynomial")
    p.add_argument("expr")
    p.add_argument("--oracle", action="store_true",
                   help="always include the sampling-oracle report")
    p.add_argument("--dump-index", type=int, default=None,
                   help="include the materialized polynomial at this index")
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("stdpart", help="coefficientwise standard part")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=_cmd_stdpart)

    p = sub.add_parser("zeros", help="roots against the standard part's zeros")
    p.add_argument("expr")
    p.add_argument("--indices", type=str, default="10,20,40")
    common(p)
    p.set_defaults(fn=_cmd_zeros)

    p = sub.add_parser("eval", help="evaluate at a sequence point")
    p.add_argument("expr")
    p.add_argument("--at", type=str, default="1")
    common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("delta", help="infinitesimal increment expansion")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("phi", help="1-form image of a differential element")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=_cmd_phi)

    p = sub.add_parser("derivation-check", help="Leibniz rule modulo I^2")
    p.add_argument("f")
    p.add_argument("g")
    common(p)
    p.set_defaults(fn=_cmd_derivation_check)

    p = sub.add_parser("lift", help="lift a residue tower")
    p.add_argument("--field", type=str, default="q")
    p.add_argument("--levels", type=str, required=True,
                   help="JSON file: list of polynomial strings")
    common(p)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("generic", help="generic point with constraint log")
    p.add_argument("--param", type=str, required=True)
    p.add_argument("--corpus", type=str, default="heights:3")
    p.add_argument("--halo", type=str, default=None)
    p.add_argument("--indices", type=str, default="1..10")
    common(p)
    p.set_defaults(fn=_cmd_generic)

    p = sub.add_parser("kochen", help="ideal/filter dictionary, exhaustively")
    p.add_argument("--index-size", type=int, default=3)
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--enumerate", action="store_true",
                   help="accepted for compatibility; enumeration is always exhaustive")
    common(p)
    p.set_defaults(fn=_cmd_kochen)

    return ap


def _execute(args) -> tuple[dict, int]:
    """Resolve the config, check the shared flags, run the parsed command, and
    map its errors.

    The horizon comes from ``HYPERPOLY_HORIZON``, then ``--horizon``.  Parse
    and bind errors report as ``"parse"``, any other handled error by its
    type name, with exit code 1.
    """
    try:
        cfg = default_config()
        if args.horizon is not None:
            cfg = replace(cfg, horizon=args.horizon)
        for rule, ok in (("--horizon >= 1", args.horizon is None or args.horizon >= 1),
                         ("--order >= 0", args.order >= 0),
                         ("--radius > 0", args.radius > 0),
                         ("--samples >= 1", args.samples >= 1)):
            if not ok:
                raise ValueError(f"need {rule}")
        report, code = args.fn(args, cfg)
    # ParseError, BindError, TowerError and DnCertificateError are
    # ValueErrors; StandardPartError and ZeroDivisionError ArithmeticErrors;
    # OSError is an unreadable --levels file, RecursionError too deep an expression
    except (ValueError, ArithmeticError, OSError, RecursionError, GridExhausted) as exc:
        label = "parse" if isinstance(exc, (ParseError, BindError)) else type(exc).__name__
        report, code = {"error": label, "message": str(exc)}, EXIT_ERROR
    return {"schema": SCHEMA, **report}, code


def run(text: str, extra_args: tuple = ()) -> tuple[dict, int]:
    """Run a full program text (declarations plus one command) in process.

    Returns the JSON report and the exit code; this is the library-side
    equivalent of the shell entry point, and prints nothing.
    """
    from .parser import Program, print_program

    program = parse(text)
    if program.command is None:
        raise BindError("program text must name a command")
    body = print_program(
        Program(program.declarations, None, program.expression)
    )
    argv = [program.command] + ([body] if body else []) + list(extra_args)
    return _execute(build_arg_parser().parse_args(argv))


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(sys.argv[1:] if argv is None else argv)
    report, code = _execute(args)
    print(json.dumps(report, indent=2 if args.pretty else None, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
