"""The ``hyperpoly`` command line.

Each subcommand accepts only the flags it reads (``COMMANDS``), parses its
expression arguments with the shared grammar, imports the computation modules
it calls when it runs (so a fresh process compiles no others), and returns one
JSON report (schema version 1) with its exit code; ``main`` alone prints the
report on stdout.  Exit codes: 0 for decided verdicts, 2 when the answer is
Undetermined, 1 for errors, a malformed command line included.  Every
setting comes from the command line: the sampling horizon is ``--horizon``
(64 for ``eval``, 32 for the ``classify`` oracle), all randomness flows from
``classify --seed``, and nothing is read from the environment, so runs with
the same arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .parser import (
    BindError,
    Bindings,
    ParseError,
    Program,
    bind_declarations,
    build_diff_element,
    build_poly,
    build_poly_in,
    build_sequence,
    free_names,
    parse,
    parse_expression,
    print_program,
    variable_map,
)
from .verdicts import HORIZON, UNDETERMINED, GridExhausted

SCHEMA = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2


def _program_env(text: str, args) -> tuple:
    program = parse(text)
    env = bind_declarations(program)
    if args.d is not None:
        from .parser import build_hypernat

        env.hypernats["d"] = build_hypernat(parse_expression(args.d), env)
    elif "d" not in env.hypernats:
        from .hypernat import HyperNatural

        env.hypernats["d"] = HyperNatural.identity()
    return program, env


def _materialization_json(p, i: int) -> dict:
    return {
        ",".join(map(str, nu)): [str(c[0]), str(c[1])]
        for nu, c in sorted(p.materialize(i).items())
    }


def _cmd_classify(args) -> tuple[dict, int]:
    from .classify import classify_poly, sampling_oracle

    if args.dump_index is not None:
        _indices("--dump-index", [args.dump_index])
    program, env = _program_env(args.expr, args)
    p = build_poly(program.expression, env)
    cls = classify_poly(p)
    report = {"command": "classify", **cls.to_json()}
    if args.oracle or cls.verdict == "unbounded":
        rep = sampling_oracle(
            p, sample_count=args.samples, radius=args.radius,
            horizon=args.horizon, seed=args.seed,
        )
        report["oracle"] = rep.to_json()
    if args.dump_index is not None:
        report["materialized"] = {
            "index": args.dump_index,
            "coefficients": _materialization_json(p, args.dump_index),
        }
    return report, EXIT_UNDETERMINED if cls.verdict == "undetermined" else EXIT_OK


def _cmd_stdpart(args) -> tuple[dict, int]:
    from .stdpart import st_poly

    program, env = _program_env(args.expr, args)
    p = build_poly(program.expression, env)
    s = st_poly(p)
    return {"command": "stdpart", "series": s.to_json(args.order)}, EXIT_OK


def _cmd_zeros(args) -> tuple[dict, int]:
    from .stdpart import zero_set_compare

    program, env = _program_env(args.expr, args)
    p = build_poly(program.expression, env)
    indices = _indices("--indices", [int(t) for t in args.indices.split(",")])
    rep = zero_set_compare(p, Fraction(args.radius), indices, tol=args.tol)
    return {"command": "zeros", **rep.to_json()}, EXIT_OK


def _indices(flag: str, indices: list[int]) -> list[int]:
    if min(indices) < 1:
        raise ValueError(f"{flag} must be >= 1 (indices start at 1), got {min(indices)}")
    return indices


def _cmd_eval(args) -> tuple[dict, int]:
    from .hypernum import HyperComplex
    from .interpoly import poly_eval

    program, env = _program_env(args.expr, args)
    p = build_poly(program.expression, env)
    x = HyperComplex.from_expr(build_sequence(parse_expression(args.at), env))
    v = poly_eval(p, [x] * p.n)
    cls = v.classify(args.horizon)
    report = {
        "command": "eval",
        "classification": cls.to_json(),
        "window": [str(v.value(i)) for i in (1, 2, 4, 8, 16)],
    }
    return report, EXIT_UNDETERMINED if cls.label == "undetermined" else EXIT_OK


def _cmd_delta(args) -> tuple[dict, int]:
    from .leibniz import delta

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


def _cmd_phi(args) -> tuple[dict, int]:
    from .leibniz import in_I, phi

    program, env = _program_env(args.expr, args)
    p = build_diff_element(program.expression, env)
    verdict = in_I(p)
    report = {"command": "phi", "inI": verdict.to_json()}
    if not verdict.holds():
        return report, EXIT_UNDETERMINED if verdict.kind == UNDETERMINED else EXIT_ERROR
    report["form"] = phi(p).to_json(args.order)
    return report, EXIT_OK


def _cmd_derivation_check(args) -> tuple[dict, int]:
    from .leibniz import derivation_check

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


def _cmd_lift(args) -> tuple[dict, int]:
    from .completion import FieldPoly, ResidueTower, lift_tower

    with open(args.levels, encoding="utf-8") as fh:
        level_texts = json.load(fh)
    if not isinstance(level_texts, list) or not all(isinstance(t, str) for t in level_texts):
        raise ValueError("--levels must hold a JSON list of polynomial strings")
    field = "Q" if args.field in ("q", "Q") else int(args.field)
    nodes = [parse_expression(text) for text in level_texts]
    variables = variable_map(nodes)
    field_levels = [
        FieldPoly.make(field, len(variables), _standard_coeffs(
            node, variables, f"tower level {text!r} mentions the index i; "
                             "levels are standard polynomials"))
        for text, node in zip(level_texts, nodes)
    ]
    tower = ResidueTower.make(field, len(variables), field_levels)
    lifted = lift_tower(tower, horizon=tower.depth)
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


def _cmd_generic(args) -> tuple[dict, int]:
    from .genpoint import generic_point, integer_poly_corpus

    param = _parse_param(args.param)
    kind, _, value = args.corpus.partition(":")
    height = int(value) if kind == "heights" and value.isdigit() else 0
    if height < 1:
        raise ValueError(f"--corpus must be heights:N with N >= 1, got {args.corpus!r}")
    halo = None
    if args.halo:
        halo = tuple(Fraction(t) for t in args.halo.split(","))
    point = generic_point(
        param, lambda: integer_poly_corpus(param.n, height), halo_center=halo
    )
    lo, hi = _indices("--indices", [int(t) for t in args.indices.split("..")])
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


def _parse_param(text: str):
    """ 't -> (t, 0)' style parametrization strings (one parameter)."""
    from .genpoint import Parametrization, RationalFunc, qpoly

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
            parse_expression(ct), {pname: 0},
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


def _cmd_kochen(args) -> tuple[dict, int]:
    from .filters import ProductRing, enumerate_filters, is_ultrafilter, kochen_ideal_to_filter

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


class UsageError(ValueError):
    """A malformed command line: an unknown or unread flag, a missing
    argument, or a value of the wrong type."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# the argparse keywords of each argument; `--field` and `--indices` mean
# different things to different commands, and `--horizon` has a default per
# command (64 for eval, 32 for the classify oracle), so their rows give their own
_FLAGS = {
    "expr": {}, "f": {}, "g": {},
    "--d": {"help": "hypernatural binding for the name 'd'"},
    "--order": {"type": int, "default": 12},
    "--radius": {"type": Fraction, "default": Fraction(1)},
    "--samples": {"type": int, "default": 16},
    "--seed": {"type": int, "default": 0},
    "--tol": {"type": float, "default": 1e-9},
    "--oracle": {"action": "store_true", "help": "always include the sampling-oracle report"},
    "--dump-index": {"type": int, "help": "include the materialized polynomial at this index"},
    "--at": {"default": "1"},
    "--levels": {"required": True, "help": "JSON file: list of polynomial strings"},
    "--param": {"required": True},
    "--corpus": {"default": "heights:3"},
    "--halo": {},
    "--index-size": {"type": int, "default": 3},
    "--enumerate": {"action": "store_true",
                    "help": "accepted for compatibility; enumeration is always exhaustive"},
}

# name, function, help, and the arguments the command reads
COMMANDS = (
    ("classify", _cmd_classify, "boundedness class of an internal polynomial",
     ("expr", "--d", "--oracle", "--dump-index", "--radius", "--samples", "--seed",
      ("--horizon", {"type": int, "default": 32}))),
    ("stdpart", _cmd_stdpart, "coefficientwise standard part", ("expr", "--d", "--order")),
    ("zeros", _cmd_zeros, "roots against the standard part's zeros",
     ("expr", "--d", "--radius", ("--indices", {"default": "10,20,40"}), "--tol")),
    ("eval", _cmd_eval, "evaluate at a sequence point",
     ("expr", "--d", "--at", ("--horizon", {"type": int, "default": HORIZON}))),
    ("delta", _cmd_delta, "infinitesimal increment expansion", ("expr", "--d")),
    ("phi", _cmd_phi, "1-form image of a differential element", ("expr", "--d", "--order")),
    ("derivation-check", _cmd_derivation_check, "Leibniz rule modulo I^2", ("f", "g", "--d")),
    ("lift", _cmd_lift, "lift a residue tower", (("--field", {"default": "q"}), "--levels")),
    ("generic", _cmd_generic, "generic point with constraint log",
     ("--param", "--corpus", "--halo", ("--indices", {"default": "1..10"}))),
    ("kochen", _cmd_kochen, "ideal/filter dictionary, exhaustively",
     ("--index-size", ("--field", {"type": int, "default": 2}), "--enumerate")),
)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing does not
    change it."""
    ap = _ArgumentParser(
        prog="hyperpoly", allow_abbrev=False,
        description="hyperfinite-degree polynomial calculus over sequence-model "
                    "hypercomplex numbers",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, fn, help_text, flags in COMMANDS:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            flag, kwargs = (flag, _FLAGS[flag]) if isinstance(flag, str) else flag
            p.add_argument(flag, **kwargs)
        p.add_argument("--pretty", action="store_true")
        p.set_defaults(fn=fn)
    return ap


def _execute(argv, program: Optional[str] = None) -> tuple[dict, int, bool]:
    """Parse ``argv``, check the flag ranges, run the command, and map its
    errors.

    A full ``program`` text, when given, supplies the command and expression
    ahead of ``argv``.  Returns the report, its exit code and whether
    ``--pretty`` was given.  Parse and bind errors report as
    ``"parse"``, any other handled error (a malformed command line is a
    ``UsageError``) by its type name, with exit code 1.
    """
    pretty = False
    try:
        if program is not None:
            argv = _program_argv(program) + list(argv)
        args, unread = build_arg_parser().parse_known_args(argv)
        pretty = args.pretty
        if unread:
            raise UsageError(f"hyperpoly {args.subcommand}: unrecognized arguments: "
                             + " ".join(unread))
        given = vars(args)
        for name, rule, ok in (("horizon", ">= 1", lambda v: v >= 1),
                               ("order", ">= 0", lambda v: v >= 0),
                               ("radius", "> 0", lambda v: v > 0),
                               ("samples", ">= 1", lambda v: v >= 1),
                               ("tol", "finite and >= 0", lambda v: 0 <= v < float("inf"))):
            if given.get(name) is not None and not ok(given[name]):
                raise ValueError(f"need --{name} {rule}")
        report, code = args.fn(args)
    # ParseError, BindError, TowerError, DnCertificateError and UsageError are
    # ValueErrors; StandardPartError and ZeroDivisionError ArithmeticErrors;
    # OSError is an unreadable --levels file, RecursionError too deep an expression
    except (ValueError, ArithmeticError, OSError, RecursionError, GridExhausted) as exc:
        label = "parse" if isinstance(exc, (ParseError, BindError)) else type(exc).__name__
        report, code = {"error": label, "message": str(exc)}, EXIT_ERROR
    return {"schema": SCHEMA, **report}, code, pretty


def _program_argv(text: str) -> list[str]:
    """The command and expression arguments of a full program text."""
    program = parse(text)
    if program.command is None:
        raise BindError("program text must name a command")
    body = print_program(Program(program.declarations, None, program.expression))
    return [program.command] + ([body] if body else [])


def run(text: str, extra_args: tuple = ()) -> tuple[dict, int]:
    """Run a full program text (declarations plus one command) in process.

    Returns the JSON report and the exit code; this is the library-side
    equivalent of the shell entry point, and prints nothing.
    """
    return _execute(extra_args, text)[:2]


def main(argv=None) -> int:
    report, code, pretty = _execute(sys.argv[1:] if argv is None else argv)
    try:
        print(json.dumps(report, indent=2 if pretty else None, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; send the interpreter's exit flush to
        # devnull, so that it cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
