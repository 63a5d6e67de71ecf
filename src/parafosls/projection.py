"""Elliptic projection through the non-symmetric spatial form.

The projector maps a (generally non-discrete) pair onto the discrete
product space by matching the non-symmetric spatial form against every
test function:

    nonsym(projection, v_h) = nonsym(exact pair, v_h)   for all v_h.

It is the central verification device for the spatial accuracy of the
scheme: it reproduces discrete pairs exactly, converges at first order
in the mesh width in the natural norm, and its scalar component gains
one extra order in L2. The time loop itself never uses it.

The spatial form is not symmetric, but it is coercive, so its symmetric
part is positive definite. The system is therefore factorized in
SuperLU's symmetric mode, with diagonal pivots in a minimum degree order
on the symmetric pattern, at less than half the fill of a general LU.
The pivots are certified positive before the solve (a non-positive or
off-diagonal pivot raises NotCoerciveError), and the solve ends with one
refinement sweep on a residual accumulated in extended precision.
"""

from typing import NamedTuple

import numpy as np

from . import solver
from .forms import FormAssembler


class ProjectionResult(NamedTuple):
    """Discrete projection coefficients: ``u, sigma = elliptic_project(...)``."""

    u_coeffs: np.ndarray
    sigma_coeffs: np.ndarray


def elliptic_project(
    u,
    grad_u,
    sigma,
    div_sigma,
    mesh,
    dofmap,
    coeffs,
    k,
    variant,
):
    """Project an exact pair onto the discrete space via the spatial form.

    Parameters
    ----------
    u, grad_u, sigma, div_sigma : callables
        Vectorized fields of (x, y) describing the pair at one fixed
        time: scalar value, its gradient, the flux, its divergence.
    k : float
        Step weight entering the spatial form.

    Returns
    -------
    ProjectionResult
        The u- and sigma-coefficients; the solve meets
        ``solver.DEFAULT_TOL`` or raises ``SolverError``.
    """
    asm = FormAssembler(mesh, dofmap, coeffs, variant)
    matrix = asm.nonsymmetric_matrix(k)
    load = asm.nonsymmetric_load_from_fields(k, u, grad_u, sigma, div_sigma)
    del asm  # frees the local DOF table; the element geometry stays cached on the mesh
    handle = solver.CoerciveFactorHandle(matrix)
    handle.certify_pivots()
    solution = handle.solve(load).solution
    return ProjectionResult(solution[: dofmap.n_u], solution[dofmap.n_u :])
