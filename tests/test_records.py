"""Record types: construction, defaults, validation, equality, hashing,
assignment and repr, pinned for every record class of the package."""

import copy
from fractions import Fraction as Q

import pytest

from hyperpoly.classify import Certificate, OracleReport, PolyClass
from hyperpoly.completion import FieldPoly, LiftedTower, ResidueTower
from hyperpoly.filters import FiniteFilterModel, ProductRing, SizeError
from hyperpoly.genpoint import LogEntry, Parametrization, RationalFunc
from hyperpoly.hypernat import HyperNatural
from hyperpoly.hypernum import Classification, HyperComplex
from hyperpoly.indexexpr import IndexExpr, SeqGrowth
from hyperpoly.interpoly import StructuredPoly, TailTerm, TopTerm
from hyperpoly.leibniz import DiffElement, EpsFactor, Factorization, OneForm, ScaledPoly
from hyperpoly.parser import (BinOp, Bindings, Factorial, Neg, Num, Pow, Program, Sum, Token,
                              Var)
from hyperpoly.stdpart import (AlgebraPresentation, SeriesMorphism, StandardPowerSeries,
                               ZeroSetReport)
from hyperpoly.verdicts import Verdict

# shared field values: records holding them compare equal only through them
ONE = IndexExpr.const(1)
HALF = IndexExpr.const(Q(1, 2))
HC = HyperComplex.from_rational(2)
P = StructuredPoly(1, HyperNatural.constant(1), {(0,): 1, (1,): Q(1, 2)})
SERIES = StandardPowerSeries.exp()
FP = FieldPoly.make("Q", 1, {(1,): 2})
FP1 = FieldPoly.make("Q", 1, {(0,): 1})
TOWER = ResidueTower.make("Q", 1, (FP1, FP1))
RF = RationalFunc(FP, FP1)
INDEX_SET = frozenset({1, 2})
MEMBERS = frozenset({frozenset({1}), frozenset({1, 2})})
SCALED = ScaledPoly(P, Q(-1, 2))
HOLDS3 = Verdict("Holds", 3, "ok")
FAILS1 = Verdict("Fails", 1)

# (build, repr text, field names, frozen); build() makes a new, equal instance each call
CASES = {
    "Verdict": (lambda: Verdict("Holds", 3, "ok"),
                "Verdict(kind='Holds', witness=3, note='ok')", ("kind", "witness", "note"), True),
    "HyperNatural": (lambda: HyperNatural(1, 5, patches=((2, 5), (1, 3))),
                     "HyperNatural(slope=1, intercept=5, patches=((1, 3), (2, 5)))",
                     ("slope", "intercept", "patches"), True),
    "Classification": (lambda: Classification("bounded", HOLDS3),
                       "Classification(label='bounded', "
                       "verdict=Verdict(kind='Holds', witness=3, note='ok'))",
                       ("label", "verdict"), True),
    "SeqGrowth": (lambda: SeqGrowth("finite", Q(1, 2), (("finite", Q(1, 2)), ("zero", Q(0)))),
                  "SeqGrowth(kind='finite', limit=Fraction(1, 2), "
                  "parity=(('finite', Fraction(1, 2)), ('zero', Fraction(0, 1))))",
                  ("kind", "limit", "parity"), True),
    "TailTerm": (lambda: TailTerm((HALF,), ONE, ONE, HALF, None, HyperNatural(1, 0)),
                 f"TailTerm(phi=({HALF!r},), eps={ONE!r}, psi_re={ONE!r}, psi_im={HALF!r}, "
                 "lo=None, hi=HyperNatural(slope=1, intercept=0, patches=()))",
                 ("phi", "eps", "psi_re", "psi_im", "lo", "hi"), True),
    "TopTerm": (lambda: TopTerm(HyperNatural(1, 0), HC),
                f"TopTerm(degree=HyperNatural(slope=1, intercept=0, patches=()), coeff={HC!r})",
                ("degree", "coeff"), True),
    "Certificate": (lambda: Certificate("sample", ("a", 2)),
                    "Certificate(kind='sample', details=('a', 2))",
                    ("kind", "details"), True),
    "PolyClass": (lambda: PolyClass("bounded", Certificate("root-test"), "no"),
                  "PolyClass(verdict='bounded', certificate=Certificate(kind='root-test', "
                  "details=()), infinitesimal='no')",
                  ("verdict", "certificate", "infinitesimal"), True),
    "OracleReport": (lambda: OracleReport(HOLDS3, FAILS1, (Q(3), Q(0)), Q(2)),
                     "OracleReport(bounded=Verdict(kind='Holds', witness=3, note='ok'), "
                     "infinitesimal=Verdict(kind='Fails', witness=1, note=''), "
                     "witness=(Fraction(3, 1), Fraction(0, 1)), radius=Fraction(2, 1))",
                     ("bounded", "infinitesimal", "witness", "radius"), True),
    "FieldPoly": (lambda: FieldPoly("Q", 1, (((1,), Q(2)),)),
                  "FieldPoly(field='Q', n=1, coeffs=(((1,), Fraction(2, 1)),))",
                  ("field", "n", "coeffs"), True),
    "ResidueTower": (lambda: ResidueTower("Q", 1, (FP1, FP1)),
                     f"ResidueTower(field='Q', n=1, levels=({FP1!r}, {FP1!r}))",
                     ("field", "n", "levels"), True),
    "LiftedTower": (lambda: LiftedTower(TOWER), f"LiftedTower(tower={TOWER!r})", ("tower",), True),
    "FiniteFilterModel": (lambda: FiniteFilterModel(INDEX_SET, MEMBERS),
                          f"FiniteFilterModel(index_set={INDEX_SET!r}, members={MEMBERS!r})",
                          ("index_set", "members"), True),
    "ProductRing": (lambda: ProductRing((1, 2), (2, 3)),
                    "ProductRing(labels=(1, 2), primes=(2, 3))", ("labels", "primes"), True),
    "RationalFunc": (lambda: RationalFunc(FP, FP1), f"RationalFunc(num={FP!r}, den={FP1!r})",
                     ("num", "den"), True),
    "Parametrization": (lambda: Parametrization(1, (RF,)),
                        f"Parametrization(k=1, coords=({RF!r},))", ("k", "coords"), True),
    "LogEntry": (lambda: LogEntry("halo", "radius 1/2", Q(1, 4)),
                 "LogEntry(kind='halo', description='radius 1/2', margin_squared=Fraction(1, 4))",
                 ("kind", "description", "margin_squared"), False),
    "Token": (lambda: Token("ident", "X", 1, 3), "Token(kind='ident', text='X', line=1, col=3)",
              ("kind", "text", "line", "col"), True),
    "Num": (lambda: Num(Q(2)), "Num(value=Fraction(2, 1))", ("value",), True),
    "Var": (lambda: Var("i"), "Var(name='i')", ("name",), True),
    "BinOp": (lambda: BinOp("+", Var("X"), Num(Q(1))),
              "BinOp(op='+', left=Var(name='X'), right=Num(value=Fraction(1, 1)))",
              ("op", "left", "right"), True),
    "Neg": (lambda: Neg(Var("X")), "Neg(operand=Var(name='X'))", ("operand",), True),
    "Pow": (lambda: Pow(Var("X"), Num(Q(2))),
            "Pow(base=Var(name='X'), exponent=Num(value=Fraction(2, 1)))",
            ("base", "exponent"), True),
    "Factorial": (lambda: Factorial("k"), "Factorial(name='k')", ("name",), True),
    "Sum": (lambda: Sum("k", 0, Var("d"), Var("X")),
            "Sum(var='k', lo=0, hi=Var(name='d'), body=Var(name='X'))",
            ("var", "lo", "hi", "body"), True),
    "Program": (lambda: Program((("d", Var("i")),), "classify", Var("X")),
                "Program(declarations=(('d', Var(name='i')),), command='classify', "
                "expression=Var(name='X'))", ("declarations", "command", "expression"), True),
    "Bindings": (lambda: Bindings({"e": ONE}, {"d": HyperNatural(1, 0)}),
                 f"Bindings(sequences={{'e': {ONE!r}}}, "
                 "hypernats={'d': HyperNatural(slope=1, intercept=0, patches=())})",
                 ("sequences", "hypernats"), False),
    "DiffElement": (lambda: DiffElement(1, {(1,): P}), f"DiffElement(n=1, slices={{(1,): {P!r}}})",
                    ("n", "slices"), False),
    "OneForm": (lambda: OneForm(1, (SERIES,)), f"OneForm(n=1, components=({SERIES!r},))",
                ("n", "components"), True),
    "EpsFactor": (lambda: EpsFactor(P, Q(1, 2)), f"EpsFactor(source={P!r}, exponent=Fraction(1, 2))",
                  ("source", "exponent"), True),
    "Factorization": (lambda: Factorization(P, (EpsFactor(P, Q(1, 2)),), SCALED),
                      f"Factorization(source={P!r}, eps=(EpsFactor(source={P!r}, "
                      f"exponent=Fraction(1, 2)),), cofactor={SCALED!r})",
                      ("source", "eps", "cofactor"), True),
    "SeriesMorphism": (lambda: SeriesMorphism([SERIES], 1, 1),
                       f"SeriesMorphism(images=[{SERIES!r}], n_source=1, m_target=1)",
                       ("images", "n_source", "m_target"), False),
    "AlgebraPresentation": (lambda: AlgebraPresentation("analytic", 1, [SERIES]),
                            f"AlgebraPresentation(side='analytic', n=1, ideal_gens=[{SERIES!r}])",
                            ("side", "n", "ideal_gens"), False),
    "ZeroSetReport": (lambda: ZeroSetReport(0.5, (1, 2), {1: (0j,)}, (0j,), {1: 0.0}, True),
                      "ZeroSetReport(radius=0.5, indices=(1, 2), roots_by_index={1: (0j,)}, "
                      "st_roots=(0j,), matching_distance={1: 0.0}, decreasing=True)",
                      ("radius", "indices", "roots_by_index", "st_roots", "matching_distance",
                       "decreasing"), True),
}
# frozen records whose fields hold dicts: hashing fails on the dict, as for a tuple
UNHASHABLE_FIELDS = {"ZeroSetReport"}
MUTABLE = {"Bindings", "LogEntry", "DiffElement", "SeriesMorphism", "AlgebraPresentation"}


def test_every_record_class_is_pinned():
    assert len(CASES) == 34
    assert {name for name, case in CASES.items() if not case[3]} == MUTABLE
    for name, (build, *_rest) in CASES.items():
        assert type(build()).__name__ == name


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_repr(name):
    build, text, _, _ = CASES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_equality_is_by_class_and_fields(name):
    build, _, fields, _ = CASES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    values = tuple(getattr(a, f) for f in fields)
    assert a != values and not a == values
    assert values != a


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_keyword_construction(name):
    build, _, fields, _ = CASES[name]
    a = build()
    assert type(a)(**{f: getattr(a, f) for f in fields}) == a
    assert type(a)(*(getattr(a, f) for f in fields)) == a


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_hashing(name):
    build, _, _, frozen = CASES[name]
    a, b = build(), build()
    if frozen and name not in UNHASHABLE_FIELDS:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_assignment(name):
    build, _, fields, frozen = CASES[name]
    a = build()
    old = getattr(a, fields[0])
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, fields[0], old)
        with pytest.raises(AttributeError):
            delattr(a, fields[0])
    else:
        setattr(a, fields[0], old)
        assert a == build()


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_copy(name):
    a = CASES[name][0]()
    assert copy.copy(a) == a and copy.copy(a) is not a


def test_inequality_across_fields_and_classes():
    assert Verdict("Holds", 3) != Verdict("Holds", 4)
    assert Var("X") != Factorial("X")
    assert HyperNatural(1, 0) != HyperNatural(1, 0, ((1, 2),))
    assert LogEntry("halo", "r") != LogEntry("halo", "r", Q(0))


def test_record_defaults():
    assert Verdict("Fails", 2).note == ""
    assert HyperNatural() == HyperNatural(0, 0, ()) == HyperNatural.constant(0)
    assert Certificate("sample") == Certificate("sample", ())
    assert PolyClass("bounded", Certificate("sample")).infinitesimal == "unknown"
    report = OracleReport(HOLDS3, FAILS1)
    assert (report.witness, report.radius) == (None, 1)
    assert LogEntry("halo", "r").margin_squared is None
    band = TailTerm(phi=(HALF,))
    assert [band.eps.eval(4), band.psi_re.eval(4), band.psi_im.eval(4)] == [1, 1, 0]
    assert (band.lo, band.hi) == (None, None)
    # defaults are built fresh for each instance (IndexExpr compares by identity)
    other = TailTerm(phi=(HALF,))
    assert (band.eps, band.psi_re, band.psi_im) != (other.eps, other.psi_re, other.psi_im)
    d1, d2 = DiffElement(1), DiffElement(1)
    assert d1.slices == {} and d1.slices is not d2.slices
    a1, a2 = AlgebraPresentation("bounded", 1), AlgebraPresentation("bounded", 1)
    assert a1.ideal_gens == [] and a1.ideal_gens is not a2.ideal_gens


def test_record_normalisation_on_construction():
    h = HyperNatural(1, 5, patches=((2, 5), (1, 3)))
    assert h.patches == ((1, 3), (2, 5))
    assert repr(h) == "HyperNatural(slope=1, intercept=5, patches=((1, 3), (2, 5)))"
    assert HyperNatural(0, 2, patches={1: 1}).patches == ((1, 1),)
    # a slice with no terms is dropped
    empty = StructuredPoly(1, HyperNatural.constant(1))
    assert DiffElement(1, {(0,): empty, (1,): P}).slices == {(1,): P}


def test_record_validation():
    with pytest.raises(ValueError, match="bad verdict kind"):
        Verdict("Maybe", 1)
    with pytest.raises(ValueError, match="witness"):
        Verdict("Holds", -1)
    with pytest.raises(ValueError, match="slope"):
        HyperNatural(-1, 0)
    with pytest.raises(ValueError, match="patches"):
        HyperNatural(0, 1, ((0, 1),))
    with pytest.raises(ValueError, match="nondecreasing"):
        HyperNatural(0, 1, ((1, 5),))
    with pytest.raises(ValueError, match="full index set"):
        FiniteFilterModel(INDEX_SET, frozenset({frozenset({1})}))
    with pytest.raises(SizeError):
        ProductRing(tuple(range(40)), (2,) * 40)
    with pytest.raises(ValueError, match="not prime"):
        ProductRing((1,), (4,))
    with pytest.raises(ValueError, match="arity"):
        DiffElement(2, {(1,): P})
    with pytest.raises(ValueError, match="side"):
        AlgebraPresentation("other", 1)


def test_field_poly_cache_keeps_value_semantics():
    a, b = FieldPoly.make("Q", 1, {(1,): Q(1, 3)}), FieldPoly.make("Q", 1, {(1,): Q(1, 3)})
    assert a.eval_at((Q(3),)) == 1
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "FieldPoly(field='Q', n=1, coeffs=(((1,), Fraction(1, 3)),))"
