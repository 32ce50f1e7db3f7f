"""quadralg: exact computer algebra for quadratic graded algebras.

Quadratic algebras T(V)/(R), their graded components and linear resolutions,
quotient resolutions by regular normal elements, cone extensions for skew
polynomial algebras, and the point-variety geometry layer (semi-standardness,
the (G1) condition, point-exactness), all over exact scalar fields.
"""

from .scalars import QQ, GF
from .polynomials import (PolyRing, CommPoly, DEGREVLEX, DEGLEX, LEX,
                          order_from_name, render_poly)
from .groebner import (Ideal, radical_member, variety_equal,
                       projective_empty, intersect, intersect_all)
from .linearforms import ProjPoint, LinearFormMatrix
from .algebra import (QuadraticPresentation, AlgebraElement,
                      GradedAutomorphism, is_normal, is_regular_up_to,
                      convert_element, opposite_element, DegreeCapExceeded)
from .resolutions import (FreeComplex, FreeModuleMap, linear_resolution,
                          verify_complex, twist_complex,
                          scalar_chain_isomorphism, NonlinearKernelError)
from .cones import (cone_extension, canonical_skew_resolution,
                    skew_matrix_of, extension_scalars)
from .shamash import (shamash, HomotopyTower, lift_against,
                      NotNormalError, NotRegularError, HomotopyLiftError,
                      InvariantBreach)
from .geometry import (point_variety, is_semi_standard, check_g1, sigma_at,
                       check_point_exact, pointwise_complex_exact,
                       vr_membership, GeometricPair, PointExactReport)
from .parsing import (parse_presentation_file, parse_presentation_text,
                      parse_element, ParseError)
from .serialize import (complex_to_dict, complex_from_dict, render_element)

__version__ = "0.1.0"
