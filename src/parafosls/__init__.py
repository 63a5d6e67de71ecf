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
from .driver import ExperimentConfig, run_experiment, run_verification_suite
from .evolution import (
    SystemState,
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
    assemble_nonsymmetric_form,
    assemble_rhs,
    assemble_total_form,
    evaluate_lsq_functional,
)
from .mesh import (
    Mesh,
    PointOutsideDomainError,
    locate_point,
    refine_uniform,
    unit_square_initial_mesh,
    write_mesh_text,
)
from .projection import ProjectionResult, elliptic_project
from .quadrature import QuadratureRule, triangle_rule
from .solver import (
    FactorHandle,
    NotSPDError,
    SPDFactorHandle,
    SolveReport,
    SolverError,
    apply,
    factorize_reusable,
    solve_general,
    solve_spd,
)
from .spaces import (
    DofMap,
    LocalBasisEval,
    build_dof_map,
    eval_discrete_function,
    eval_local_basis,
)

__version__ = "0.1.0"
