"""Least-squares finite elements for 2D parabolic problems.

The package discretizes reaction-convection-diffusion equations on the
unit square by rewriting them as a first-order system, stepping with
backward Euler, and minimizing the step residual in a least-squares
sense over continuous P1 (scalar) times lowest-order Raviart-Thomas
(flux) elements. It ships the assembly machinery, an elliptic
projection operator for verification, manufactured benchmark problems,
and a CLI for convergence-rate experiments.
"""

from .analysis import (
    ERROR_QUANTITIES,
    ErrorReport,
    ManufacturedProblem,
    compute_errors,
    decaying_sine_problem,
    field_error_norms,
    observed_rates,
)
from .checks import run_verification_suite
from .driver import ExperimentConfig, run_experiment
from .evolution import (
    SeparableSource,
    TimePartition,
    backward_euler_run,
    galerkin_be_reference,
    l2_project_initial,
)
from .forms import (
    CoefficientError,
    Coefficients,
    FormAssembler,
    ProblemVariant,
)
from .mesh import Mesh, refine_uniform, unit_square_initial_mesh
from .projection import ProjectionResult, elliptic_project
from .quadrature import QuadratureRule, triangle_rule
from .solver import (
    CoerciveFactorHandle,
    FactorHandle,
    NotCoerciveError,
    NotSPDError,
    SolveReport,
    SolverError,
    solve_spd,
)
from .spaces import (
    DofMap,
    LocalBasisEval,
    build_dof_map,
    eval_local_basis,
)

__version__ = "0.1.0"
