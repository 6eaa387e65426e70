"""Geometry of second-order differential equations on Lie algebroids.

The package evaluates everything numerically at sample points, with exact
first and second partial derivatives supplied by jet arithmetic over parsed
expression trees.
"""

from .algebroid import Algebroid, BaseSection, ValidationReport
from .config import Candidate, SampleSpec, SystemConfig, load_config, parse_config
from .connection import (
    Connection,
    CovariantDerivative,
    GeometryFrame,
    berwald_coefficients,
    berwald_connection,
    berwald_derivative,
    canonical_connection,
    connection_from_lie_derivative,
    curvature,
    curvature_apply,
    curvature_from_brackets,
    f_tensor,
    geometry_frames,
    h_tensor,
    horizontal_basis_exprs,
    jacobi_endomorphism,
    jacobi_from_bracket,
    nabla_tensor,
    v_tensor,
)
from .errors import (
    AlgmechError,
    ConfigError,
    EvaluationDomainError,
    ExactnessWitnessError,
    ExprSyntaxError,
    FiberDependenceError,
    IntegrationAbortError,
    SingularMetricError,
    SingularPairingError,
    UnknownIdentifierError,
)
from .expr import Expr, differentiate, parse_expression, to_source, variables
from .jets import EvalPoint, Jet2, PointEvaluator, eval_jet, finite_difference_jet
from .lagrangian import (
    Lagrangian,
    Trajectory,
    canonical_semispray,
    cartan_two_section,
    euler_lagrange_residual,
    fiber_metric,
    integrate_sode,
    symplectic_residual,
)
from .prolongation import (
    ExprTensor,
    ProlongationSection,
    Semispray,
    SprayReport,
    bracket,
    complete_lift,
    directional_derivative,
    euler_section,
    identity_tensor,
    j_tensor,
    lie_derivative_tensor,
    sode_derivative_expr,
    spray_test,
    vertical_lift,
)
from .sampling import SplitMix64, sample_points
from .symmetry import (
    CartanReconstruction,
    ConservedQuantity,
    SymmetryVerdict,
    cartan_from_conservation,
    cartan_symmetry_check,
    conservation_check,
    conserved_from_cartan,
    dynamical_symmetry_check,
    invariant_equation_residual,
    lie_symmetry_check,
    newtonoid_check,
    newtonoid_completion,
    star_product_exprs,
)

__version__ = "0.1.0"
