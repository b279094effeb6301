"""dfan: standard bases and Groebner fans for homogenized differential
operators with parametric coefficients, in exact rational arithmetic."""

from .errors import (AllCoefficientsInQ, CapTooSmall, DenominatorVanishes,
                     DepthExceeded, DfanError, DivisionByZeroModQ, DivisorInQ,
                     EmptyCone, LcDoesNotDivideH, NonConvergentTraversal,
                     NotAdmissible, NotPrime, OperatorSyntaxError, UnknownName,
                     ZeroDivisor, ZeroOperator)
from .params import (ParamField, ParamFraction, ParamIdeal, ParamPoly,
                     QQ_FIELD, QQField, param_ring, poly_str)
from .operators import Exponent, HOperator, exponent, homogenize
from .orders import OrderSpec, Weight, leading_data, leading_data_mod_q
from .cones import RelOpenCone, clear_form, feasible, solve
from .newton import (NewtonPolyhedron, face_of, in_wstar, minkowski_sum,
                     newton, normal_cone, vertex_set, wstar_rays)
from .division import DivisionResult, denominator_certificate, divide, partition
from .standard import (GenSBCertificate, StandardBasis, certified_standard_basis,
                       generic_standard_basis, reduce_basis,
                       reduced_generic_standard_basis, spair, standard_basis,
                       uniqueness_check)
from .fan import (FanCell, GroebnerFan, base_fan_order, cell_at,
                  check_fan_against_grid, dn_standard_basis, enumerate_fan,
                  fan_of_ideal, grid_weights, homogenized_generators,
                  oracle_classify, t_order)
from .parametric import (ComprehensiveFan, ConstancyCertificate, Stratum,
                         common_refinement, comprehensive_fan,
                         constant_fan_certificate, homogenization_commutes,
                         newton_stability_multiplier, rationals_by_height,
                         sample_points, specialize_ideal)
from .parsing import ProblemFile, parse_operator, parse_param_poly, parse_problem

__version__ = "0.1.0"
