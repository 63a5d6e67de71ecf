"""Backward Euler time stepping for the least-squares scheme.

Each step solves  total(u^n, v) = F(v; f^n, u^{n-1})  over the product
space, where f^n is the source evaluated at the new time level. With a
constant step the system matrix is factorized once and reused for the
whole run. The standard Galerkin backward Euler scheme on the scalar
space is provided as an independent reference: for zero convection and
reaction with unit diffusion the least-squares u-component must
reproduce it.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import solver
from .forms import (
    FormAssembler,
    assemble_p1_load,
    assemble_p1_mass,
    assemble_p1_stiffness,
)
from .quadrature import triangle_rule

_PARTITION_TOL = 1e-12
# Steps within this relative distance count as one step size and share
# one factorization; the difference they make to a solution is far below
# the solver's residual contract.
_STEP_RTOL = 1e-12


@dataclass
class SystemState:
    """Coefficients of one time level.

    ``sigma_coeffs`` is None for the initial state: the scheme only
    prescribes scalar initial data, and step one never reads sigma.
    """

    u_coeffs: np.ndarray
    sigma_coeffs: Optional[np.ndarray]
    time: float


@dataclass(frozen=True)
class TimePartition:
    """Partition of [0, T] into positive steps."""

    steps: np.ndarray = field()

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=float)
        object.__setattr__(self, "steps", steps)
        if steps.ndim != 1 or steps.size == 0:
            raise ValueError("need at least one time step")
        if np.any(steps <= 0.0):
            raise ValueError("all time steps must be positive")

    @classmethod
    def uniform(cls, final_time, num_steps):
        if num_steps < 1:
            raise ValueError("need at least one step")
        return cls(steps=np.full(num_steps, final_time / num_steps))

    @classmethod
    def from_steps(cls, steps, final_time=None):
        part = cls(steps=np.asarray(steps, dtype=float))
        if final_time is not None and abs(part.final_time - final_time) > _PARTITION_TOL:
            raise ValueError(
                f"steps sum to {part.final_time}, expected {final_time}"
            )
        return part

    @property
    def final_time(self):
        return float(self.steps.sum())

    @property
    def constant(self):
        return bool(np.all(_same_step(self.steps, self.steps[0])))

    @property
    def times(self):
        return np.concatenate([[0.0], np.cumsum(self.steps)])


def _same_step(k, reference):
    """Whether k equals the reference step up to roundoff."""
    return np.abs(k - reference) <= _STEP_RTOL * reference


def l2_project_initial(u0, mesh, dofmap, solver_tol=solver.DEFAULT_TOL):
    """L2-orthogonal projection of u0 onto the interior-vertex P1 space."""
    mass = assemble_p1_mass(mesh, dofmap)
    load = assemble_p1_load(mesh, dofmap, u0)
    return solver.solve_spd(mass, load, tol=solver_tol).solution


def backward_euler_run(
    problem,
    partition,
    mesh,
    dofmap,
    coeffs=None,
    variant=None,
    initial=None,
    solver_tol=solver.DEFAULT_TOL,
    keep_sigma_every=0,
):
    """Run the least-squares backward Euler scheme over a partition.

    Parameters
    ----------
    problem : manufactured problem or callable
        Either an object with attributes ``f`` (source, signature
        (t, x, y)), ``coeffs`` and ``variant``, or the source callable
        itself (then ``coeffs`` and ``variant`` are required).
    initial : (n_u,) array or None
        Scalar initial coefficients; zero if None.
    keep_sigma_every : int
        Keep the flux coefficients of every m-th state in addition to
        the final one (0 keeps only the final).

    Returns
    -------
    list of SystemState, one per time level including the initial one.
    """
    f = getattr(problem, "f", problem)
    coeffs = coeffs if coeffs is not None else problem.coeffs
    variant = variant if variant is not None else problem.variant

    steps = partition.steps
    times = partition.times
    n_u = dofmap.n_u
    if initial is None:
        initial = np.zeros(n_u)
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (n_u,):
        raise ValueError(f"initial vector must have length {n_u}")

    states = [SystemState(u_coeffs=initial, sigma_coeffs=None, time=0.0)]
    # The scalar iterates live in one block allocated up front: a view of
    # each step's solution would pin its flux part as well, and a fresh
    # array per step fragments the heap, so that peak memory would climb
    # from run to run in a long-lived process.
    iterates = np.empty((len(steps), n_u))
    assembler = None
    handle = None
    current_k = None
    u_prev = initial
    last = len(steps)
    for n, k in enumerate(steps, start=1):
        if assembler is None or not _same_step(k, current_k):
            assembler = FormAssembler(mesh, dofmap, coeffs, k, variant)
            handle = solver.SPDFactorHandle(assembler.total_matrix())
            current_k = k
        t_n = times[n]
        rhs = assembler.load_vector(f=lambda x, y: f(t_n, x, y), w=u_prev)
        try:
            report = handle.solve(rhs, tol=solver_tol)
        except solver.SolverError as exc:
            raise solver.SolverError(f"time step {n} failed: {exc}") from exc
        sol = report.solution
        u_n = iterates[n - 1]
        u_n[:] = sol[:n_u]
        keep = n == last or (keep_sigma_every > 0 and n % keep_sigma_every == 0)
        states.append(
            SystemState(
                u_coeffs=u_n,
                sigma_coeffs=sol[n_u:].copy() if keep else None,
                time=float(t_n),
            )
        )
        u_prev = u_n
    return states


def galerkin_be_reference(
    f, partition, mesh, dofmap, initial=None, solver_tol=solver.DEFAULT_TOL
):
    """Backward Euler for the standard Galerkin heat discretization.

    Solves (1/k)<u^n, v> + <grad u^n, grad v> = (1/k)<u^{n-1}, v>
    + <f^n, v> on the interior-vertex P1 space and returns the list of
    coefficient vectors, including the initial one.
    """
    mass = assemble_p1_mass(mesh, dofmap)
    stiffness = assemble_p1_stiffness(mesh, dofmap)
    if initial is None:
        initial = np.zeros(dofmap.n_u)
    trajectory = [np.asarray(initial, dtype=float)]
    times = partition.times
    handle = None
    current_k = None
    for n, k in enumerate(partition.steps, start=1):
        if handle is None or not _same_step(k, current_k):
            handle = solver.SPDFactorHandle(mass / k + stiffness)
            current_k = k
        t_n = times[n]
        rhs = mass @ trajectory[-1] / current_k + assemble_p1_load(
            mesh, dofmap, lambda x, y: f(t_n, x, y)
        )
        trajectory.append(handle.solve(rhs, tol=solver_tol).solution)
    return trajectory


def l2_norm_of_source(f, t, mesh, degree=6):
    """L2 norm over the domain of the source at one time."""
    rule = triangle_rule(degree)
    verts = mesh.vertices[mesh.triangles]
    d1 = verts[:, 1] - verts[:, 0]
    d2 = verts[:, 2] - verts[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    wj = rule.weights[None, :] * (2.0 * areas[:, None])
    pts = np.einsum("qi,eix->eqx", rule.points, verts)
    vals = np.broadcast_to(f(t, pts[..., 0], pts[..., 1]), pts.shape[:2])
    return float(np.sqrt(np.sum(wj * vals**2)))


def check_stability_bound(states, f, partition, mesh, dofmap, slack=1e-10):
    """Verify the per-step a priori bound of the scalar iterates.

    The n-th iterate must satisfy
    ||u^n|| <= sum_{j<=n} k_j ||f^j|| + ||u^0||, up to a relative
    slack. Returns (lhs, rhs) arrays over n = 1..N; raises on
    violation.
    """
    mass = assemble_p1_mass(mesh, dofmap)

    def u_norm(c):
        return float(np.sqrt(max(c @ (mass @ c), 0.0)))

    times = partition.times
    rhs_running = u_norm(states[0].u_coeffs)
    lhs_values = []
    rhs_values = []
    for n, k in enumerate(partition.steps, start=1):
        rhs_running += k * l2_norm_of_source(f, times[n], mesh)
        lhs = u_norm(states[n].u_coeffs)
        if lhs > rhs_running * (1.0 + slack):
            raise AssertionError(
                f"stability bound violated at step {n}: "
                f"{lhs} > {rhs_running}"
            )
        lhs_values.append(lhs)
        rhs_values.append(rhs_running)
    return np.array(lhs_values), np.array(rhs_values)
