"""jetforge: exact jet spaces of affine schemes and jets of flat frames and
local period maps of a connection, cross-checked by an independent truncated
series solver."""

from fractions import Fraction as Rational

from .errors import (ArityMismatch, BasepointNotOnScheme, DimensionMismatch,
                     IndexOutOfRange, InputError, JetforgeError,
                     NonIntegrable, NoRationalFvPoint, NotAUnit, NoValidChart,
                     OrderIncrease, OrderMismatch, OrderTooLow,
                     SingularInitial, SingularPoint)
from .poly import MultiIndex, Polynomial, graded_monomials, monomial_key
from .ratfunc import RationalFunction
from .series import JetPoint, TruncatedSeries, series_compose
from .scheme import (AffineMap, AffineScheme, PolyMap, PolySystem,
                     WitnessReport, dimension_witness, generic_jet,
                     is_compatible, is_nondegenerate, jet_membership,
                     jet_prolong, jet_prolong_universal, jet_space_equations,
                     jet_space_equations_universal, jet_to_coords,
                     coords_to_jet)
from .connection import (ConnectionChart, MatrixJet, XiTable, beta, build_xi,
                         check_flatness, check_right_equivariance,
                         matrixjet_invert, period_system, scalar_ode,
                         series_oracle)
from .flags import (EtaWitness, FlagChart, FlagJet, HodgeData, TorsorPoint,
                    alpha, check_fv, check_hr1, eta_chartlocal,
                    flag_of_matrix, gram_obeys_first_relation,
                    weight1_positivity)
from .congruence import solve_congruence
from .examples import (NamedExample, builtin_examples, exponential_chart,
                       gauss_series_coefficients, hypergeometric_jet,
                       legendre_chart, legendre_scalar_coefficients,
                       nilpotent_chart)

__version__ = "0.1.0"
