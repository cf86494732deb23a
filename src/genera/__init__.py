"""Exact computation of Hirzebruch-style genera, Grothendieck-ring
classes with E-polynomial realization, stringy invariants of resolution
data, and jet-space verification oracles."""

from .rings import (ExactDivisionError, MultiPoly, RationalFunction,
                    TruncSeries)
from .expr import ExprError, parse_expr
from .graded import GradedRing
from .catalog import SERIES_NAMES, builtin_series, genus_on_projective
from .projspace import ProjSpaceRing, hrr_check, ty_class_degree
from .k0 import (Atom, K0Class, LEFSCHETZ, TowerDatum, blowup_relation_check,
                 chi_y_of_class, e_polynomial, euler_of_class, lefschetz,
                 pro_euler, pro_grothendieck)
from .stringy import (ConsistencyError, ResolutionDatum, StringyValue,
                      invariance_check, load_datum, motivic_integral,
                      stringy_E, stringy_chi_y, stringy_euler)
from .jets import JetSpec, cylinder_measure, oracle_integral

__version__ = "0.1.0"

__all__ = [
    "ExactDivisionError", "MultiPoly", "RationalFunction", "TruncSeries",
    "ExprError", "parse_expr", "GradedRing", "SERIES_NAMES",
    "builtin_series", "genus_on_projective", "ProjSpaceRing", "hrr_check",
    "ty_class_degree", "Atom", "K0Class", "LEFSCHETZ", "TowerDatum",
    "blowup_relation_check", "chi_y_of_class", "e_polynomial",
    "euler_of_class", "lefschetz", "pro_euler", "pro_grothendieck",
    "ConsistencyError", "ResolutionDatum", "StringyValue",
    "invariance_check", "load_datum", "motivic_integral", "stringy_E",
    "stringy_chi_y", "stringy_euler", "JetSpec", "cylinder_measure",
    "oracle_integral"]
