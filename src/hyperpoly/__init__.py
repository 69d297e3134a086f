"""hyperpoly: hyperfinite-degree polynomial calculus on sequence models.

Hypercomplex numbers are representative sequences with exact symbolic growth
analysis; internal polynomials carry coefficient rules over a hyperfinite
degree; classifiers, standard-part maps, adic completion lifts, an
infinitesimal differential calculus, and constructive generic points sit on
top, all exercised through the ``hyperpoly`` command line.

The public names below load on first use (PEP 562): ``import hyperpoly``
compiles no submodule, and a command compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {name: module for module, names in {
    "verdicts": "HORIZON Verdict eventually",
    "filters": "FiniteFilterModel ProductRing enumerate_filters is_ultrafilter "
               "kochen_filter_to_ideal kochen_ideal_to_filter",
    "indexexpr": "IndexExpr",
    "hypernat": "HyperNatural",
    "hypernum": "HyperComplex standard_part",
    "interpoly": "InternalPolynomial InternalSeries StructuredPoly TailTerm TopTerm "
                 "partial_derivative poly_add poly_compose poly_eval poly_mul scalar_mul theta "
                 "truncate_series truncated_exp truncated_geometric",
    "classify": "Certificate PolyClass cauchy_all_coefficients classify_poly "
                "coefficient_bound_check sampling_oracle",
    "stdpart": "AlgebraPresentation StandardPowerSeries lift_series st_functor st_morphism "
               "st_poly zero_set_compare",
    "completion": "FieldPoly LiftedTower ResidueTower finite_field_surjectivity_check "
                  "lift_tower",
    "leibniz": "DiffElement OneForm delta derivation_check in_I in_I2 infinitesimal_factor phi",
    "genpoint": "LazyHyperPoint Parametrization evaluation_embedding_check generic_point "
                "id_of_point integer_poly_corpus nullstellensatz_witness v_of_ideal",
    "parser": "parse print_program",
}.items() for name in names.split()}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_EXPORTS])
