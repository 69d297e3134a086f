"""The integer ``IndexExpr`` kernel against the ``Fraction`` one it replaced.

The reference functions below are the form arithmetic and growth analysis
the kernel replaced: geometric bases stored as ``Fraction`` keys, every
coefficient a ``Fraction`` of its own, and ``i!`` computed at every
evaluation.  They are kept here only as the specification.  Every form the
kernel builds must equal theirs term for term, every value and every error
must be the same at indices 0..40, and so must the growth analysis and the
printed form.
"""

import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.hypernat import HyperNatural
from hyperpoly.hypernum import HyperComplex
from hyperpoly.indexexpr import (
    FragmentError,
    IndexExpr,
    SeqGrowth,
    class_key_of_square,
)
from hyperpoly.interpoly import StructuredPoly

# ---------------------------------------------------------------------------
# reference kernel: Fraction bases and Fraction coefficients throughout
# ---------------------------------------------------------------------------

REF_ONE_KEY = (0, Q(1), 0)


def ref_const(q):
    q = Q(q)
    return {} if q == 0 else {REF_ONE_KEY: q}


def ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, Q(0)) + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def ref_neg(a):
    return {k: -c for k, c in a.items()}


def ref_mul(a, b):
    out = {}
    for (k1, c1, p1), q1 in a.items():
        for (k2, c2, p2), q2 in b.items():
            key = (k1 + k2, c1 * c2, p1 + p2)
            s = out.get(key, Q(0)) + q1 * q2
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def ref_eval(a, i):
    total = Q(0)
    for (k, c, p), q in a.items():
        total += q * c**i * Q(math.factorial(i)) ** k * Q(i) ** p
    return total


def ref_classes(a):
    out = {}
    for (k, c, p), q in a.items():
        ck = (k, abs(c), p)
        A, B = out.get(ck, (Q(0), Q(0)))
        if c > 0:
            A += q
        else:
            B += q
        out[ck] = (A, B)
    return out


def ref_class_sub(c1, c2):
    return (c1[0] - c2[0], c1[1] / c2[1], c1[2] - c2[2])


def ref_poly_in_i(coeffs):
    return {(0, Q(1), j): Q(c) for j, c in enumerate(coeffs) if c != 0}


def ref_power(a, n):
    out = ref_const(1)
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_subst(a, scale, shift):
    num_total, den_total = {}, ref_const(1)
    for (k, c, p), q in a.items():
        mono_num, mono_den = ref_const(q), ref_const(1)
        if c != 1:
            mono_num = ref_mul(mono_num, {(0, c**scale, 0): c**shift})
        if p != 0:
            mono_num = ref_mul(mono_num, ref_poly_in_i(
                [Q(math.comb(p, j)) * Q(scale) ** j * Q(shift) ** (p - j)
                 for j in range(p + 1)]))
        if k != 0:
            if scale != 1:
                raise FragmentError("factorial under a scaled reindexing leaves the fragment")
            fact = {(k, Q(1), 0): Q(1)}
            prod = ref_const(1)
            if shift >= 0:
                for j in range(1, shift + 1):
                    prod = ref_mul(prod, ref_poly_in_i([Q(j), Q(1)]))
                mono_num = ref_mul(mono_num, ref_mul(fact, ref_power(prod, k)))
            else:
                for j in range(0, -shift):
                    prod = ref_mul(prod, ref_poly_in_i([Q(-j), Q(1)]))
                mono_num = ref_mul(mono_num, fact)
                mono_den = ref_mul(mono_den, ref_power(prod, k))
        num_total = ref_add(ref_mul(num_total, mono_den), ref_mul(mono_num, den_total))
        den_total = ref_mul(den_total, mono_den)
    return num_total, den_total


def ref_leading(classes, parity):
    sigma = 1 if parity == 0 else -1
    best = None
    for ck, (A, B) in classes.items():
        gamma = A + sigma * B
        if gamma == 0:
            continue
        if best is None or ck > best[0]:
            best = (ck, gamma)
    return best


def ref_parity_behavior(num, den, parity):
    dl = ref_leading(ref_classes(den), parity)
    if dl is None:
        return ("undef", None)
    nl = ref_leading(ref_classes(num), parity)
    if nl is None or nl[0] < dl[0]:
        return ("zero", Q(0))
    if nl[0] > dl[0]:
        return ("infinite", None)
    return ("finite", nl[1] / dl[1])


def ref_growth(num, den):
    b0, b1 = ref_parity_behavior(num, den, 0), ref_parity_behavior(num, den, 1)
    tags = (b0[0], b1[0])
    if "undef" in tags:
        return SeqGrowth("undef", None, (b0, b1))
    if tags == ("zero", "zero"):
        return SeqGrowth("zero", Q(0), (b0, b1))
    if tags == ("infinite", "infinite"):
        return SeqGrowth("infinite", None, (b0, b1))
    if tags == ("finite", "finite"):
        return SeqGrowth("finite", b0[1] if b0[1] == b1[1] else None, (b0, b1))
    if "infinite" in tags:
        return SeqGrowth("mixed", None, (b0, b1))
    return SeqGrowth("finite-or-zero", None, (b0, b1))


def ref_class_key_of_square(sq):
    if sq.is_zero():
        return None
    keys = []
    for form in (sq.num, sq.den):
        l0, l1 = ref_leading(ref_classes(form), 0), ref_leading(ref_classes(form), 1)
        if l0 is None or l1 is None or l0[0] != l1[0]:
            return None
        keys.append(l0[0])
    return ref_class_sub(keys[0], keys[1])


def ref_fmt(a):
    def mono(key, coeff):
        k, c, p = key
        parts = [] if coeff == 1 and key != REF_ONE_KEY else [str(coeff)]
        if c != 1:
            parts.append(f"({c})^i")
        if k == 1:
            parts.append("i!")
        elif k > 1:
            parts.append(f"(i!)^{k}")
        if p == 1:
            parts.append("i")
        elif p > 1:
            parts.append(f"i^{p}")
        return "*".join(parts) if parts else str(coeff)

    if not a:
        return "0"
    return " + ".join(mono(k, c) for k, c in sorted(a.items(), key=lambda kv: kv[0]))


class Ref:
    """The quotient-of-forms sequence as it was built before the kernel."""

    def __init__(self, num, den):
        if not den:
            raise ZeroDivisionError("IndexExpr with identically zero denominator")
        self.num, self.den = num, den

    @staticmethod
    def const(q):
        return Ref(ref_const(q), ref_const(1))

    @staticmethod
    def index():
        return Ref({(0, Q(1), 1): Q(1)}, ref_const(1))

    @staticmethod
    def factorial():
        return Ref({(1, Q(1), 0): Q(1)}, ref_const(1))

    @staticmethod
    def geometric(c):
        return Ref({(0, Q(c), 0): Q(1)}, ref_const(1))

    def __add__(self, other):
        if self.den == other.den:
            return Ref(ref_add(self.num, other.num), dict(self.den))
        return Ref(ref_add(ref_mul(self.num, other.den), ref_mul(other.num, self.den)),
                   ref_mul(self.den, other.den))

    def __neg__(self):
        return Ref(ref_neg(self.num), dict(self.den))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Ref(ref_mul(self.num, other.num), ref_mul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by the zero sequence")
        return Ref(ref_mul(self.num, other.den), ref_mul(self.den, other.num))

    def __pow__(self, n):
        if n < 0:
            return (Ref.const(1) / self) ** (-n)
        out, base = Ref.const(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def subst_affine(self, scale, shift):
        if scale < 1:
            raise FragmentError("affine reindexing needs scale >= 1")
        num, dnum = ref_subst(self.num, scale, shift)
        den, dden = ref_subst(self.den, scale, shift)
        return Ref(ref_mul(num, dden), ref_mul(den, dnum))

    def eval(self, i):
        d = ref_eval(self.den, i)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at index {i}")
        return ref_eval(self.num, i) / d

    def is_zero(self):
        return not self.num

    def constant_value(self):
        if not self.num:
            return Q(0)
        if set(self.num) != set(self.den):
            return None
        ratios = {self.num[k] / self.den[k] for k in self.num}
        return ratios.pop() if len(ratios) == 1 else None

    def growth(self):
        return ref_growth(self.num, self.den)

    def limit(self):
        g = self.growth()
        return Q(0) if g.kind == "zero" else g.limit

    def __repr__(self):
        return f"IndexExpr({ref_fmt(self.num)} / {ref_fmt(self.den)})"


# ---------------------------------------------------------------------------
# drawn expressions, built the same way in both kernels
# ---------------------------------------------------------------------------

BASES = (Q(2), Q(-1), Q(1, 2), Q(-3, 4))

leaves = st.one_of(
    st.tuples(st.just("const"), st.fractions(min_value=-3, max_value=3, max_denominator=3)),
    st.just(("index",)),
    st.just(("factorial",)),
    st.tuples(st.just("geometric"), st.sampled_from(BASES)),
    # 4^i * (1/2)^i: an integral base reached as a product of bases
    st.just(("four-halves",)),
)
recipes = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(("add", "sub", "mul", "div")), kids, kids),
        st.tuples(st.just("pow"), kids, st.integers(-2, 3)),
        st.tuples(st.just("subst"), kids, st.integers(1, 2), st.integers(-2, 2)),
    ),
    max_leaves=8,
)


def build(recipe, kind):
    op = recipe[0]
    if op == "const":
        return kind.const(recipe[1])
    if op in ("index", "factorial"):
        return getattr(kind, op)()
    if op == "geometric":
        return kind.geometric(recipe[1])
    if op == "four-halves":
        return kind.geometric(4) * kind.geometric(Q(1, 2))
    if op == "pow":
        return build(recipe[1], kind) ** recipe[2]
    if op == "subst":
        return build(recipe[1], kind).subst_affine(recipe[2], recipe[3])
    a, b = build(recipe[1], kind), build(recipe[2], kind)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    return a * b if op == "mul" else a / b


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def as_fraction_keys(form):
    """A kernel form as a dict of Fraction coefficients with Fraction bases,
    after checking that it is in lowest terms."""
    terms, den = form
    assert den > 0 and 0 not in terms.values()
    assert math.gcd(den, *terms.values()) == 1
    out = {(k, Q(b) if isinstance(b, int) else Q(*b), p): Q(c, den)
           for (k, b, p), c in terms.items()}
    assert len(out) == len(terms), "two keys name the same geometric base"
    return out


def assert_same_sequence(e, r):
    assert as_fraction_keys(e.num) == r.num
    assert as_fraction_keys(e.den) == r.den
    assert repr(e) == repr(r)
    for i in range(41):
        assert outcome(e.eval, i) == outcome(r.eval, i), i
    got = (outcome(e.growth), outcome(e.limit), outcome(e.constant_value),
           outcome(class_key_of_square, e * e))
    want = (outcome(r.growth), outcome(r.limit), outcome(r.constant_value),
            outcome(ref_class_key_of_square, r * r))
    assert got == want
    key, ref_key = got[3][1], want[3][1]
    if got[3][0] == "ok" and key is not None:
        # certificates print the base of a class key
        assert str(key[1]) == str(ref_key[1])


def assert_same_recipe(recipe):
    e, r = outcome(build, recipe, IndexExpr), outcome(build, recipe, Ref)
    assert e[0] == r[0] and (e[0] == "ok" or e == r), (e, r)
    if e[0] == "ok":
        assert_same_sequence(e[1], r[1])


@settings(max_examples=200, deadline=None)
@given(recipes)
def test_kernel_matches_fraction_reference(recipe):
    assert_same_recipe(recipe)


# a non-constant sequence with poles at 1 and 2
NON_CONSTANT = ("add", ("div", ("geometric", Q(-3, 4)), ("sub", ("index",), ("const", Q(1)))),
                ("div", ("factorial",), ("sub", ("index",), ("const", Q(2)))))
ZERO_OVER_I = ("div", ("const", Q(0)), ("index",))
ZERO_OVER_I_MINUS_3 = ("div", ("const", Q(0)), ("sub", ("index",), ("const", Q(3))))


@pytest.mark.parametrize("recipe", [
    ("four-halves",),
    ("sub", ("four-halves",), ("geometric", Q(2))),
    ("mul", ("geometric", Q(-3, 4)), ("geometric", Q(-3, 4))),
    ("div", ("index",), ("sub", ("geometric", Q(1, 2)), ("geometric", Q(1, 2)))),
    ("div", ("const", Q(1)), ("sub", ("index",), ("const", Q(3)))),
    ("subst", ("mul", ("factorial",), ("geometric", Q(-3, 4))), 1, -2),
    ("subst", ("div", ("geometric", Q(1, 2)), ("index",)), 2, 1),
    ("pow", ("add", ("four-halves",), ("factorial",)), -2),
    # the exact zero and one as identities against the general rule
    ("add", NON_CONSTANT, ("const", Q(0))),
    ("add", ("const", Q(0)), NON_CONSTANT),
    ("mul", ("const", Q(1)), NON_CONSTANT),
    ("mul", NON_CONSTANT, ("const", Q(1))),
    # a zero over another denominator keeps its poles (at 0 and at 3)
    ("add", ("index",), ZERO_OVER_I),
    ("mul", NON_CONSTANT, ("add", ("const", Q(1)), ZERO_OVER_I_MINUS_3)),
])
def test_kernel_matches_fraction_reference_on_fixed_cases(recipe):
    assert_same_recipe(recipe)


def test_exact_zero_and_one_return_the_other_operand():
    x = build(NON_CONSTANT, IndexExpr)
    assert (x + IndexExpr.const(0)) is x
    assert (IndexExpr.const(0) + x) is x
    assert (IndexExpr.const(1) * x) is x
    assert (x * IndexExpr.const(1)) is x
    for pole, zero in ((0, ZERO_OVER_I), (3, ZERO_OVER_I_MINUS_3)):
        zero = build(zero, IndexExpr)
        for e in (x + zero, zero + x, x * (IndexExpr.const(1) + zero)):
            assert e is not x
            with pytest.raises(ZeroDivisionError):
                e.eval(pole)


def test_untouched_coefficients_share_one_zero_part():
    p = StructuredPoly(2, HyperNatural.constant(2), {
        (1, 0): HyperComplex.from_rational(3), (0, 1): HyperComplex.from_rational(5)})
    a, b, c, d = (p.coeff(nu) for nu in ((1, 0), (0, 1), (1, 1), (2, 0)))
    assert a.im is b.im is c.re is c.im is d.re is d.im
    assert c.re.is_zero() and c.value_exact(7) == (0, 0)


def test_integral_product_base_is_an_int_key():
    e = IndexExpr.geometric(4) * IndexExpr.geometric(Q(1, 2))
    assert e.num == ({(0, 2, 0): 1}, 1)
    assert (e - IndexExpr.geometric(2)).is_zero()
    assert repr(e) == "IndexExpr((2)^i / 1)"


def test_negative_index_is_refused_by_name():
    e = 1 / IndexExpr.index()
    with pytest.raises(ValueError, match="index -3"):
        e.eval(-3)
    assert e.eval(3) == Q(1, 3)
