"""hyperpoly: hyperfinite-degree polynomial calculus on sequence models.

Hypercomplex numbers are representative sequences with exact symbolic growth
analysis; internal polynomials carry coefficient rules over a hyperfinite
degree; classifiers, standard-part maps, adic completion lifts, an
infinitesimal differential calculus, and constructive generic points sit on
top, all exercised through the ``hyperpoly`` command line.
"""

from .config import HORIZON, default_horizon
from .verdicts import Verdict, eventually, negate
from .filters import (
    FiniteFilterModel,
    ProductRing,
    enumerate_filters,
    is_ultrafilter,
    kochen_filter_to_ideal,
    kochen_ideal_to_filter,
)
from .indexexpr import IndexExpr
from .hypernat import HyperNatural
from .hypernum import (
    HyperComplex,
    classify_magnitude,
    standard_part,
)
from .interpoly import (
    InternalPolynomial,
    InternalSeries,
    StructuredPoly,
    TailTerm,
    TopTerm,
    abs_poly,
    homogenize,
    dehomogenize,
    partial_derivative,
    poly_add,
    poly_compose,
    poly_eval,
    poly_mul,
    scalar_mul,
    theta,
    truncate_series,
    truncated_exp,
    truncated_geometric,
)
from .classify import (
    Certificate,
    PolyClass,
    cauchy_all_coefficients,
    cauchy_coefficient,
    classify_poly,
    coefficient_bound_check,
    sampling_oracle,
)
from .stdpart import (
    AlgebraPresentation,
    StandardPowerSeries,
    lift_series,
    st_functor,
    st_morphism,
    st_poly,
    zero_set_compare,
)
from .completion import (
    FieldPoly,
    LiftedTower,
    ResidueTower,
    finite_field_surjectivity_check,
    halo_membership,
    lift_tower,
)
from .leibniz import (
    DiffElement,
    OneForm,
    delta,
    derivation_check,
    in_I,
    in_I2,
    infinitesimal_factor,
    phi,
    reduce_mod_I2,
    section_s,
)
from .genpoint import (
    LazyHyperPoint,
    Parametrization,
    evaluation_embedding_check,
    generic_point,
    id_of_point,
    integer_poly_corpus,
    nullstellensatz_witness,
    v_of_ideal,
)
from .parser import parse, print_program

__version__ = "0.1.0"
