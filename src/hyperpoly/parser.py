"""Expression grammar for the command-line surface.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' (nat | ident))?
    atom   := number | 'i' | var | '(' expr ')'
            | 'sum' '(' ident '=' nat '..' bound ',' expr ')'
            | ident '!'
    bound  := nat | ident          -- an identifier bound to a hypernatural

Variables are X, Y, Z, X1..X9 and their increments dX, dY, dZ, dX1..dX9.  A
program is a semicolon-separated list of declarations ``name := expr``
followed by one expression (optionally prefixed by a command word, which the
CLI dispatches on).  Diagnostics carry line, column, and the expected tokens.

An identifier exponent is the loop variable of a sum (``X^k``) or the index
(``2^i``).  ``build_poly_in`` is the one reading of an expression as a
polynomial; its caller fixes the variables.  A command that reads several
expressions orders their variables over all of them.  ``generic`` coordinates
and ``lift`` levels are standard polynomials in the same grammar: they may
not mention ``i`` (unless the parameter is named ``i``) or any other name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .hypernat import HyperNatural
from .hypernum import HyperComplex
from .indexexpr import IndexExpr

Q = Fraction

X_VARS = ["X", "Y", "Z"] + [f"X{k}" for k in range(1, 10)]
DX_VARS = ["dX", "dY", "dZ"] + [f"dX{k}" for k in range(1, 10)]
_DX_TO_X = dict(zip(DX_VARS, X_VARS))

COMMANDS = (
    "classify", "stdpart", "zeros", "delta", "phi", "derivation-check",
    "lift", "generic", "kochen", "eval",
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected=()):
        loc = f"line {line}, column {col}"
        exp = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at {loc}{exp}")
        self.line = line
        self.col = col
        self.expected = tuple(expected)


# -- tokens -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>:=|\.\.|[+\-*/^!(),;=])"
)


@dataclass(frozen=True)
class Token:
    kind: str        # number | ident | op | end
    text: str
    line: int
    col: int


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            line, col = _line_col(text, pos)
            raise ParseError(f"unrecognized input {text[pos:pos + 10]!r}", line, col)
        line, col = _line_col(text, pos)
        tokens.append(Token(m.lastgroup, m.group(m.lastgroup), line, col))
        pos = m.end()
    line, col = _line_col(text, len(text))
    tokens.append(Token("end", "", line, col))
    return tokens


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: "Node"     # Num with a natural, or Var (the loop variable)


@dataclass(frozen=True)
class Factorial:
    name: str


@dataclass(frozen=True)
class Sum:
    var: str
    lo: int
    hi: "Node"           # Num or Var bound to a hypernatural
    body: "Node"


Node = Union[Num, Var, BinOp, Neg, Pow, Factorial, Sum]


@dataclass(frozen=True)
class Program:
    declarations: tuple        # (name, Node) pairs, in order
    command: Optional[str]
    expression: Optional[Node]


# -- parser -------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str, expected_desc: Optional[tuple] = None) -> Token:
        t = self.peek()
        if t.text != text:
            raise ParseError(
                f"unexpected {t.text!r}" if t.kind != "end" else "unexpected end of input",
                t.line, t.col, expected_desc or (repr(text),),
            )
        return self.advance()

    def parse_program(self) -> Program:
        decls = []
        while (
            self.peek().kind == "ident"
            and self.pos + 1 < len(self.tokens)
            and self.tokens[self.pos + 1].text == ":="
        ):
            name = self.advance().text
            self.advance()  # :=
            decls.append((name, self.parse_expr()))
            if self.peek().text == ";":
                self.advance()
            else:
                break
        command = None
        t = self.peek()
        if (
            t.kind == "ident" and t.text == "derivation"
            and self.tokens[self.pos + 1].text == "-"
            and self.tokens[self.pos + 2].text == "check"
        ):
            self.pos += 3
            command = "derivation-check"
        elif t.kind == "ident" and t.text in COMMANDS:
            nxt = self.tokens[self.pos + 1]
            if nxt.text not in ("!", "^", "*", "/", "+", "-", ")", ",", ";", ".."):
                command = self.advance().text
        expression = None
        if self.peek().kind != "end":
            expression = self.parse_expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
        return Program(tuple(decls), command, expression)

    def parse_expr(self) -> Node:
        if self.peek().text == "-":
            self.advance()
            node: Node = Neg(self.parse_term())
        else:
            node = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        node = self.parse_atom()
        if self.peek().text == "^":
            self.advance()
            t = self.peek()
            if t.kind == "number" and "." not in t.text:
                self.advance()
                return Pow(node, Num(Q(int(t.text))))
            if t.kind == "ident":
                self.advance()
                return Pow(node, Var(t.text))
            raise ParseError(
                f"unexpected {t.text!r}" if t.kind != "end" else "unexpected end of input",
                t.line, t.col, ("nat", "ident"),
            )
        return node

    def parse_atom(self) -> Node:
        t = self.peek()
        if t.kind == "number":
            self.advance()
            if "." in t.text:
                whole, frac = t.text.split(".")
                return Num(Q(int(whole or 0)) + Q(int(frac), 10 ** len(frac)))
            return Num(Q(int(t.text)))
        if t.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if t.text == "sum":
            return self.parse_sum()
        if t.kind == "ident":
            self.advance()
            if self.peek().text == "!":
                self.advance()
                return Factorial(t.text)
            return Var(t.text)
        raise ParseError(
            f"unexpected {t.text!r}" if t.kind != "end" else "unexpected end of input",
            t.line, t.col, ("number", "ident", "'('", "'sum'"),
        )

    def parse_sum(self) -> Node:
        self.expect("sum")
        self.expect("(")
        t = self.peek()
        if t.kind != "ident":
            raise ParseError("summation needs a loop variable", t.line, t.col, ("ident",))
        var = self.advance().text
        self.expect("=")
        t = self.peek()
        if t.kind != "number" or "." in t.text:
            raise ParseError("summation lower bound must be a natural",
                             t.line, t.col, ("nat",))
        lo = int(self.advance().text)
        self.expect("..")
        t = self.peek()
        if t.kind == "number" and "." not in t.text:
            self.advance()
            hi: Node = Num(Q(int(t.text)))
        elif t.kind == "ident":
            self.advance()
            hi = Var(t.text)
        else:
            raise ParseError("summation upper bound must be a natural or a name",
                             t.line, t.col, ("nat", "ident"))
        self.expect(",")
        body = self.parse_expr()
        self.expect(")")
        return Sum(var, lo, hi, body)


def parse(text: str) -> Program:
    return _Parser(tokenize(text)).parse_program()


def parse_expression(text: str) -> Node:
    p = parse(text)
    if p.command is not None or p.declarations or p.expression is None:
        raise ParseError("expected a bare expression", 1, 1)
    return p.expression


# -- printer ------------------------------------------------------------------

def print_node(node: Node) -> str:
    if isinstance(node, Num):
        v = node.value
        return str(v) if v.denominator == 1 else f"({v.numerator}/{v.denominator})"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{print_node(node.operand)})"
    if isinstance(node, BinOp):
        return f"({print_node(node.left)} {node.op} {print_node(node.right)})"
    if isinstance(node, Pow):
        exp = node.exponent
        exp_s = exp.name if isinstance(exp, Var) else str(exp.value)
        return f"({print_node(node.base)} ^ {exp_s})"
    if isinstance(node, Factorial):
        return f"{node.name}!"
    if isinstance(node, Sum):
        hi = node.hi.name if isinstance(node.hi, Var) else str(node.hi.value)
        return f"sum({node.var} = {node.lo} .. {hi}, {print_node(node.body)})"
    raise TypeError(f"unknown node {node!r}")


def print_program(p: Program) -> str:
    parts = [f"{name} := {print_node(node)}" for name, node in p.declarations]
    tail = ""
    if p.command:
        tail = p.command + (" " + print_node(p.expression) if p.expression else "")
    elif p.expression:
        tail = print_node(p.expression)
    return "; ".join(parts + ([tail] if tail else []))


# ---------------------------------------------------------------------------
# semantics: AST -> sequences, hypernaturals, polynomials, differentials
# ---------------------------------------------------------------------------

class BindError(ValueError):
    pass


@dataclass
class Bindings:
    sequences: dict            # name -> IndexExpr
    hypernats: dict            # name -> HyperNatural

    @staticmethod
    def empty() -> "Bindings":
        return Bindings({}, {})


def build_sequence(node: Node, env: Bindings) -> IndexExpr:
    """Interpret the AST as an index sequence (variable ``i``)."""

    def go(n: Node) -> IndexExpr:
        if isinstance(n, Num):
            return IndexExpr.const(n.value)
        if isinstance(n, Var):
            if n.name == "i":
                return IndexExpr.index()
            if n.name in env.sequences:
                return env.sequences[n.name]
            if n.name in env.hypernats:
                h = env.hypernats[n.name]
                return h.slope * IndexExpr.index() + IndexExpr.const(h.intercept)
            raise BindError(f"unbound name {n.name!r} in a sequence expression")
        if isinstance(n, Neg):
            return -go(n.operand)
        if isinstance(n, Factorial):
            if n.name != "i":
                raise BindError(f"factorial applies to 'i', got {n.name!r}")
            return IndexExpr.factorial()
        if isinstance(n, BinOp):
            a, b = go(n.left), go(n.right)
            return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[n.op]
        if isinstance(n, Pow):
            if isinstance(n.exponent, Num):
                return go(n.base) ** int(n.exponent.value)
            if isinstance(n.exponent, Var) and n.exponent.name == "i":
                base = go(n.base).constant_value()
                if base is None:
                    raise BindError("c^i needs a constant rational base")
                return IndexExpr.geometric(base)
            raise BindError("sequence powers need a literal natural or 'i' exponent")
        raise BindError(f"cannot read {n!r} as a sequence")

    return go(node)


def build_hypernat(node: Node, env: Bindings) -> HyperNatural:
    """Interpret the AST as an affine hypernatural a*i + b."""

    def go(n: Node) -> tuple[Fraction, Fraction]:
        if isinstance(n, Num):
            return (Q(0), n.value)
        if isinstance(n, Var):
            if n.name == "i":
                return (Q(1), Q(0))
            if n.name in env.hypernats:
                h = env.hypernats[n.name]
                return (Q(h.slope), Q(h.intercept))
            raise BindError(f"unbound name {n.name!r} in a hypernatural expression")
        if isinstance(n, BinOp):
            a, b = go(n.left), go(n.right)
            if n.op == "+":
                return (a[0] + b[0], a[1] + b[1])
            if n.op == "-":
                return (a[0] - b[0], a[1] - b[1])
            if n.op == "*":
                if a[0] != 0 and b[0] != 0:
                    raise BindError("hypernatural expressions must stay affine in i")
                return (a[0] * b[1] + b[0] * a[1], a[1] * b[1])
            raise BindError(f"operator {n.op!r} not allowed in hypernaturals")
        raise BindError(f"cannot read {n!r} as a hypernatural")

    slope, intercept = go(node)
    if slope.denominator != 1 or intercept.denominator != 1 or slope < 0:
        raise BindError("hypernaturals need natural slope and integer intercept")
    return HyperNatural(int(slope), int(intercept))


def _collect_vars(node: Node, names: list, acc: set) -> set:
    """Add to ``acc`` the members of ``names`` that ``node`` reads as variables."""
    if isinstance(node, Var) and node.name in names:
        acc.add(node.name)
    elif isinstance(node, BinOp):
        _collect_vars(node.left, names, acc)
        _collect_vars(node.right, names, acc)
    elif isinstance(node, Neg):
        _collect_vars(node.operand, names, acc)
    elif isinstance(node, Pow):
        _collect_vars(node.base, names, acc)
    elif isinstance(node, Sum):
        _collect_vars(node.body, names, acc)
    return acc


def _positions(names: set) -> dict:
    order = [v for v in X_VARS if v in names] or ["X"]
    return {v: k for k, v in enumerate(order)}


def variable_map(nodes) -> dict:
    """``{name: position}`` over the X variables that any of ``nodes`` reads.

    Positions follow the order of ``X_VARS``; with no variable at all the map
    is ``{"X": 0}``.  A command that reads several expressions builds each of
    them over this one map, so a name means the same variable in all of them.
    """
    names: set = set()
    for node in nodes:
        _collect_vars(node, X_VARS, names)
    return _positions(names)


def build_poly(node: Node, env: Bindings):
    """Interpret the AST as an internal polynomial in its own X variables."""
    return build_poly_in(node, env, variable_map([node]))


def build_poly_in(node: Node, env: Bindings, variables: dict):
    """Interpret the AST as an internal polynomial over ``variables``.

    ``variables`` maps each polynomial variable's name to its position; any
    other name is read as a sequence through ``env``.  Every polynomial built
    from an AST is built here.
    """
    from .interpoly import constant, poly_add, poly_mul, scalar_mul, variable

    n = len(variables)

    def seq(m: Node) -> IndexExpr:
        if "i" in variables and "i" in free_names(m):
            raise BindError("'i' is a polynomial variable here, not the index")
        return build_sequence(m, env)

    def go(m: Node):
        if isinstance(m, Num):
            return constant(n, m.value)
        if isinstance(m, Var) and m.name in variables:
            return variable(n, variables[m.name])
        if isinstance(m, (Var, Factorial)):
            return scalar_mul(HyperComplex.from_expr(seq(m)), constant(n, 1))
        if isinstance(m, Neg):
            return scalar_mul(-1, go(m.operand))
        if isinstance(m, Sum):
            return _build_band(m, env, variables, seq)
        if isinstance(m, BinOp):
            if m.op == "+":
                return poly_add(go(m.left), go(m.right))
            if m.op == "-":
                return poly_add(go(m.left), scalar_mul(-1, go(m.right)))
            if m.op == "*":
                return poly_mul(go(m.left), go(m.right))
            if m.op == "/":
                divisor = seq(m.right)
                return scalar_mul(
                    HyperComplex.from_expr(IndexExpr.const(1) / divisor), go(m.left)
                )
        if isinstance(m, Pow):
            if not isinstance(m.exponent, Num):
                raise BindError(
                    "polynomial powers need literal exponents; use sum(...) for bands"
                )
            if isinstance(m.base, Var) and m.base.name not in variables:
                return scalar_mul(HyperComplex.from_expr(seq(m)), constant(n, 1))
            out = constant(n, 1)
            base = go(m.base)
            for _ in range(int(m.exponent.value)):
                out = poly_mul(out, base)
            return out
        raise BindError(f"cannot read {m!r} as a polynomial")

    return go(node)


def _build_band(node: Sum, env: Bindings, variables: dict, seq):
    """sum(k = lo .. hi, body): recognize coeff(k, i) * X^k bands."""
    from .interpoly import StructuredPoly, TailTerm

    k = node.var
    if isinstance(node.hi, Num):
        hi: HyperNatural = HyperNatural.constant(int(node.hi.value))
    else:
        if node.hi.name not in env.hypernats:
            raise BindError(
                f"summation bound {node.hi.name!r} is not a declared hypernatural"
            )
        hi = env.hypernats[node.hi.name]
    if len(variables) != 1:
        raise BindError("summation bands are univariate in the command grammar")
    coeff_factors = _split_band_body(node.body, k, variables)
    phi, eps, psi = _separate_factors(coeff_factors, k, seq)
    lo = None if node.lo == 0 else HyperNatural.constant(node.lo - 1)
    tail = TailTerm((phi,), eps, psi, IndexExpr.const(0), lo, hi)
    return StructuredPoly(1, hi, tails=(tail,))


def _split_band_body(body: Node, k: str, variables: dict) -> list[Node]:
    """Peel X^k off a product body; return the residual factor ASTs."""
    factors: list[Node] = []
    power_var = None

    def walk(m: Node, inverted=False):
        nonlocal power_var
        if isinstance(m, BinOp) and m.op == "*" and not inverted:
            walk(m.left)
            walk(m.right)
            return
        if isinstance(m, BinOp) and m.op == "/":
            walk(m.left, inverted)
            walk(m.right, not inverted)
            return
        if (
            not inverted
            and isinstance(m, Pow)
            and isinstance(m.base, Var)
            and m.base.name in variables
            and isinstance(m.exponent, Var)
            and m.exponent.name == k
        ):
            if power_var is not None:
                raise BindError("only one X^k power per summation body")
            power_var = m.base.name
            return
        factors.append(m if not inverted else BinOp("/", Num(Q(1)), m))

    walk(body)
    if power_var is None:
        raise BindError("summation bodies must contain a power X^k of the loop variable")
    return factors


def _separate_factors(factors: list[Node], k: str, seq):
    """Split coefficient factors into phi(k), eps(i)^k, and psi(i)."""
    phi = IndexExpr.const(1)
    eps = IndexExpr.const(1)
    psi = IndexExpr.const(1)
    for f in factors:
        free = free_names(f)
        if (
            isinstance(f, Pow)
            and isinstance(f.exponent, Var)
            and f.exponent.name == k
        ):
            base_free = free_names(f.base)
            if k in base_free:
                raise BindError("band base may not depend on the loop variable")
            eps = eps * seq(f.base)
            continue
        if (
            isinstance(f, BinOp) and f.op == "/"
            and isinstance(f.right, Pow)
            and isinstance(f.right.exponent, Var)
            and f.right.exponent.name == k
        ):
            eps = eps / seq(f.right.base)
            f = f.left
            free = free_names(f)
        if k in free and "i" in free:
            raise BindError(
                "band coefficients must separate into phi(k) * eps(i)^k * psi(i)"
            )
        if k in free:
            phi = phi * _as_loop_expr(f, k)
        else:
            psi = psi * seq(f)
    return phi, eps, psi


def _as_loop_expr(node: Node, k: str) -> IndexExpr:
    """Read a k-only AST as an IndexExpr in the band variable."""

    def go(m: Node) -> IndexExpr:
        if isinstance(m, Num):
            return IndexExpr.const(m.value)
        if isinstance(m, Var):
            if m.name == k:
                return IndexExpr.index()
            raise BindError(f"unexpected name {m.name!r} in a band coefficient")
        if isinstance(m, Neg):
            return -go(m.operand)
        if isinstance(m, Factorial):
            if m.name != k:
                raise BindError(f"factorial of {m.name!r} inside a band over {k!r}")
            return IndexExpr.factorial()
        if isinstance(m, BinOp):
            a, b = go(m.left), go(m.right)
            return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[m.op]
        if isinstance(m, Pow):
            if isinstance(m.exponent, Num):
                return go(m.base) ** int(m.exponent.value)
            raise BindError("nested loop powers are not in the band fragment")
        raise BindError(f"cannot read {m!r} as a band coefficient")

    return go(node)


def free_names(node: Node, acc: Optional[set] = None) -> set:
    """Names ``node`` reads (``i`` included), less the variables its sums bind."""
    acc = set() if acc is None else acc
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, Factorial):
        acc.add(node.name)
    elif isinstance(node, BinOp):
        free_names(node.left, acc)
        free_names(node.right, acc)
    elif isinstance(node, Neg):
        free_names(node.operand, acc)
    elif isinstance(node, Pow):
        free_names(node.base, acc)
        free_names(node.exponent, acc)
    elif isinstance(node, Sum):
        free_names(node.body, acc)
        acc.discard(node.var)
    return acc


def build_diff_element(node: Node, env: Bindings):
    """Interpret the AST as a differential element (X and dX variables)."""
    from .interpoly import StructuredPoly
    from .leibniz import DiffElement

    dx_names = _collect_vars(node, DX_VARS, set())
    positions = _positions(_collect_vars(node, X_VARS, set()) | {_DX_TO_X[d] for d in dx_names})
    n = len(positions)
    # built in 2n variables: the X's first, then the matching dX's
    variables = {**positions,
                 **{d: n + positions[v] for d, v in _DX_TO_X.items() if v in positions}}
    expanded = build_poly_in(node, env, variables)
    if not isinstance(expanded, StructuredPoly) or expanded.tails or expanded.tops:
        raise BindError("differential expressions must expand to explicit form")
    slices: dict = {}
    for nu, c in expanded.explicit.items():
        x_mu, dx_mu = tuple(nu[:n]), tuple(nu[n:])
        cur = slices.setdefault(dx_mu, {})
        cur[x_mu] = cur[x_mu] + c if x_mu in cur else c
    deg = expanded.degree
    return DiffElement(
        n,
        {
            mu: StructuredPoly(n, deg, dict(xs))
            for mu, xs in slices.items()
        },
    )


def bind_declarations(program: Program, env: Optional[Bindings] = None) -> Bindings:
    """Evaluate ``name := expr`` declarations into sequence/hypernat bindings.

    A declaration whose expression is affine in ``i`` with natural slope and
    nonnegative intercept binds both tiers; the hypernatural view is what
    summation bounds look up.
    """
    env = env or Bindings.empty()
    for name, node in program.declarations:
        bound = False
        try:
            h = build_hypernat(node, env)
            env.hypernats[name] = h
            bound = True
        except BindError:
            pass
        try:
            env.sequences[name] = build_sequence(node, env)
            bound = True
        except BindError:
            pass
        if not bound:
            raise BindError(f"declaration {name!r} is neither a sequence nor a hypernatural")
    return env
