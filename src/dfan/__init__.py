"""dfan: standard bases and Groebner fans for homogenized differential
operators with parametric coefficients, in exact rational arithmetic."""

from .errors import (DenominatorVanishes, DepthExceeded, DfanError,
                     DivisionByZeroModQ, NonConvergentTraversal, NotAdmissible,
                     NotPrime, OperatorSyntaxError, UnknownName, ZeroDivisor,
                     ZeroOperator)
from .params import (ParamField, ParamFraction, ParamIdeal, ParamPoly,
                     QQ_FIELD, QQField, param_ring, poly_str)
from .operators import Exponent, HOperator, exponent, homogenize
from .orders import OrderSpec, Weight, leading_data
from .cones import RelOpenCone, solve
from .newton import (NewtonPolyhedron, face_of, face_of_sum, in_wstar,
                     normal_cone, vertex_set)
from .division import DivisionResult, denominator_certificate, divide, partition
from .standard import (StandardBasis, certified_standard_basis, reduce_basis,
                       spair, standard_basis)
from .fan import (FanCell, GroebnerFan, cell_at, enumerate_fan, fan_of_ideal,
                  grid_weights, homogenized_generators, oracle_classify)
from .parametric import (ComprehensiveFan, ConstancyCertificate, Stratum,
                         comprehensive_fan, constant_fan_certificate,
                         newton_stability_multiplier, specialize_ideal)
from .parsing import ProblemFile, parse_operator, parse_param_poly, parse_problem

__version__ = "0.1.0"
