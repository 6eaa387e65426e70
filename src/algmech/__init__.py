"""Geometry of second-order differential equations on Lie algebroids.

The package evaluates everything numerically at sample points, with exact
first partial derivatives supplied by jet arithmetic over parsed expression
trees; a second partial is the jet of a derivative tree.

Every BLAS and LAPACK call made here is rank-sized, which OpenBLAS does not
split across threads, yet starting its thread pool is more than half of
``import numpy``.  So when numpy is not imported yet and none of OpenBLAS's
thread variables is set, numpy is imported with ``OPENBLAS_NUM_THREADS=1``,
which OpenBLAS reads once, when it loads; the variable is then removed, so
the caller's environment and child processes are as they were.  Setting any
of the variables, or importing numpy first, keeps OpenBLAS's own choice.
"""

import os as _os
import sys as _sys

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _THREAD_VARIABLES):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
from .jets import EvalPoint, Jet, SampleEvaluator
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
    brackets,
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
    prepare_checks,
    star_product_exprs,
)

__version__ = "0.1.0"
