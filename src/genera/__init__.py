"""Exact computation of Hirzebruch-style genera, Grothendieck-ring
classes with E-polynomial realization, stringy invariants of resolution
data, and jet-space verification oracles."""

from .rings import (ExactDivisionError, MultiPoly, RationalFunction,
                    TruncSeries)
from .expr import ExprError, parse_expr
from .graded import ChernRing, GradedRing
from .bundles import (FormalBundle, chern_character, elliptic_class_qseries,
                      lambda_op, line_ch, multiplicative_class, s_op)
from .catalog import (SERIES_NAMES, builtin_series, genus_logarithm,
                      genus_on_projective, hirzebruch_specialize,
                      twisted_chi_y, unnormalize_invariance_check)
from .projspace import (ProjSpaceRing, ghrr_normalization_check, hrr_check,
                        ty_class_degree)
from .k0 import (Atom, ConstructibleFunction, K0Class, LEFSCHETZ,
                 RelativeClass, StratifiedMap, StratifiedSpace, TowerDatum,
                 blowup_relation_check, chi_y_of_class, e_polynomial,
                 epsilon, euler_of_class, lefschetz, pro_euler,
                 pro_grothendieck, pushforward_cf, pushforward_rel,
                 pullback_rel)
from .stringy import (ConsistencyError, ResolutionDatum, StringyValue,
                      invariance_check, jacobian_factor_limit, load_datum,
                      motivic_integral, stringy_E, stringy_chi_y,
                      stringy_euler)
from .jets import JetSpec, cylinder_measure, oracle_integral

__version__ = "0.1.0"

__all__ = [
    "ExactDivisionError", "MultiPoly", "RationalFunction", "TruncSeries",
    "ExprError", "parse_expr", "ChernRing", "GradedRing", "FormalBundle",
    "chern_character", "elliptic_class_qseries", "lambda_op", "line_ch",
    "multiplicative_class", "s_op", "SERIES_NAMES", "builtin_series",
    "genus_logarithm", "genus_on_projective", "hirzebruch_specialize",
    "twisted_chi_y", "unnormalize_invariance_check", "ProjSpaceRing",
    "ghrr_normalization_check", "hrr_check", "ty_class_degree", "Atom",
    "ConstructibleFunction", "K0Class", "LEFSCHETZ", "RelativeClass",
    "StratifiedMap", "StratifiedSpace", "TowerDatum", "blowup_relation_check",
    "chi_y_of_class", "e_polynomial", "epsilon", "euler_of_class", "lefschetz",
    "pro_euler", "pro_grothendieck", "pushforward_cf", "pushforward_rel",
    "pullback_rel", "ConsistencyError", "ResolutionDatum", "StringyValue",
    "invariance_check", "jacobian_factor_limit", "load_datum",
    "motivic_integral", "stringy_E", "stringy_chi_y", "stringy_euler",
    "JetSpec", "cylinder_measure", "oracle_integral"]
