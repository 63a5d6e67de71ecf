"""Backward Euler time stepping for the least-squares scheme.

Each step solves  total(u^n, v) = F(v; f^n, u^{n-1})  over the product
space, where f^n is the source at the new time level. The forms are
spatial: time enters only here, through f^n and the previous iterate.
With a constant step the system matrix is factorized once and reused
for the whole run. For a ``SeparableSource`` theta(t) g(x, y) the loop
keeps the load of g next to the factorization of each run of equal
steps and adds theta(t_n) times it to each step's load; any other source
is evaluated afresh at every step. The standard Galerkin backward Euler
scheme on the scalar space is provided as an independent reference: for
zero convection and reaction with unit diffusion the least-squares
u-component must reproduce it; it evaluates f(t, x, y) at every step.
"""

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import solver
from .forms import (
    DATA_DEGREE,
    FormAssembler,
    assemble_p1_load,
    assemble_p1_mass,
    assemble_p1_stiffness,
)
from .quadrature import triangle_rule
from .spaces import (
    _coefficient_vector,
    _element_first,
    field_values,
    quadrature_points,
    quadrature_weights,
)

# Steps within this relative distance count as one step size and share
# one factorization; the difference they make to a solution is far below
# the solver's residual contract.
_STEP_RTOL = 1e-12
_STABILITY_SLACK = 1e-10  # relative roundoff room of the per-step stability bound


@dataclass(frozen=True)
class SeparableSource:
    """A source f(t, x, y) = theta(t) g(x, y) that exposes its two factors.

    theta maps a time to a scalar, g is a vectorized (x, y) field. It is
    called like any source; ``backward_euler_run`` integrates g once per
    run of equal steps, and ``check_stability_bound`` once per call.
    """

    theta: Callable
    g: Callable

    def __call__(self, t, x, y):
        return self.theta(t) * self.g(x, y)


def _theta_at(source, t):
    """theta(t) of a separable source as a float; raises ValueError unless finite."""
    value = float(source.theta(t))
    if not np.isfinite(value):
        raise ValueError(f"source theta is not finite at t = {t:.6g}: value {value}")
    return value


@dataclass(frozen=True)
class TimePartition:
    """Partition of [0, T] into positive steps."""

    steps: np.ndarray = field()

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=float)
        object.__setattr__(self, "steps", steps)
        if steps.ndim != 1 or steps.size == 0:
            raise ValueError("need at least one time step")
        bad = ~(np.isfinite(steps) & (steps > 0.0))
        if bad.any():
            n = int(np.argmax(bad))
            raise ValueError(f"time step {n + 1} = {steps[n]} is not positive and finite")

    @classmethod
    def uniform(cls, final_time, num_steps):
        integer = isinstance(num_steps, numbers.Integral) and not isinstance(num_steps, bool)
        if not (integer and num_steps >= 1):
            raise ValueError(f"num_steps must be a positive integer, got {num_steps!r}")
        return cls(steps=np.full(num_steps, final_time / num_steps))

    @property
    def final_time(self):
        return float(self.steps.sum())

    @property
    def times(self):
        return np.concatenate([[0.0], np.cumsum(self.steps)])


def _same_step(k, reference):
    """Whether k equals the reference step up to roundoff."""
    return np.abs(k - reference) <= _STEP_RTOL * reference


def l2_project_initial(u0, mesh, dofmap):
    """L2-orthogonal projection of u0 onto the interior-vertex P1 space."""
    mass = assemble_p1_mass(mesh, dofmap)
    load = assemble_p1_load(mesh, dofmap, u0, "u0")
    return solver.solve_spd(mass, load).solution


def backward_euler_run(f, partition, mesh, dofmap, coeffs, variant, initial=None):
    """Run the least-squares backward Euler scheme over a partition.

    Parameters
    ----------
    f : callable
        The source f(t, x, y). A ``SeparableSource`` has its field g
        integrated once per run of equal steps; a theta(t_n) that is not
        finite raises ValueError before that step's solve.
    coeffs, variant
        The coefficients and the splitting of the problem.
    initial : (n_u,) array or None
        Scalar initial coefficients; zero if None. A wrong length or a
        non-finite entry raises ValueError naming ``initial``.

    Returns
    -------
    u : (N + 1, n_u) array
        Row n holds the scalar coefficients of time level n; row 0 the
        checked initial data.
    sigma : (n_sigma,) array
        The flux coefficients of the final time level.
    """
    separable = isinstance(f, SeparableSource)
    steps = partition.steps
    times = partition.times
    n_u = dofmap.n_u
    # One block for the whole trajectory: a fresh array per step
    # fragments the heap, so that peak memory would climb from run to
    # run in a long-lived process.
    u = np.empty((len(steps) + 1, n_u))
    u[0] = 0.0 if initial is None else _coefficient_vector(initial, n_u, "initial")
    assembler = FormAssembler(mesh, dofmap, coeffs, variant)
    handle = None
    current_k = None
    image = None  # k to_tests g of a separable source, for the current step size
    for n, k in enumerate(steps, start=1):
        if handle is None or not _same_step(k, current_k):
            handle = solver.FactorHandle(assembler.total_matrix(k))
            current_k = k
            image = None
        t_n = times[n]
        if separable:
            scale = _theta_at(f, t_n)
            rhs = assembler.load_vector(current_k, w=u[n - 1])  # builds the operators first
            image = assembler.source_load(current_k, f.g) if image is None else image
            rhs += scale * image
        else:
            rhs = assembler.load_vector(current_k, f=lambda x, y: f(t_n, x, y), w=u[n - 1])
        try:
            sol = handle.solve(rhs).solution
        except solver.SolverError as exc:
            raise solver.SolverError(f"time step {n} failed: {exc}") from exc
        u[n] = sol[:n_u]
    return u, sol[n_u:].copy()


def galerkin_be_reference(f, partition, mesh, dofmap, initial=None):
    """Backward Euler for the standard Galerkin heat discretization.

    Solves (1/k)<u^n, v> + <grad u^n, grad v> = (1/k)<u^{n-1}, v>
    + <f^n, v> on the interior-vertex P1 space and returns the
    (N + 1, n_u) array of coefficients, row 0 the initial ones. Every
    source is evaluated as f(t_n, x, y); ``initial`` is checked as in
    the scheme.
    """
    n_u = dofmap.n_u
    u = np.empty((len(partition.steps) + 1, n_u))
    u[0] = 0.0 if initial is None else _coefficient_vector(initial, n_u, "initial")
    mass = assemble_p1_mass(mesh, dofmap)
    stiffness = assemble_p1_stiffness(mesh, dofmap)
    times = partition.times
    handle = None
    current_k = None
    for n, k in enumerate(partition.steps, start=1):
        if handle is None or not _same_step(k, current_k):
            handle = solver.FactorHandle(mass / k + stiffness)
            current_k = k
        t_n = times[n]
        load = assemble_p1_load(mesh, dofmap, lambda x, y: f(t_n, x, y), "source f")
        rhs = mass @ u[n - 1] / current_k + load
        u[n] = handle.solve(rhs).solution
    return u


def check_stability_bound(u, f, partition, mesh, dofmap):
    """Verify the per-step a priori bound of the scalar iterates.

    Row n of the (N + 1, n_u) array ``u`` must satisfy
    ||u^n|| <= sum_{j<=n} k_j ||f^j|| + ||u^0||, up to a relative
    slack. Returns (lhs, rhs) arrays over n = 1..N; raises
    AssertionError on violation, a NaN norm included. A ``u`` of
    another shape raises ValueError naming it. For a
    ``SeparableSource`` theta g, ||f^j|| = |theta(t_j)| ||g|| with
    ||g|| integrated once; a theta(t_j) that is not finite raises
    ValueError.
    """
    shape = (len(partition.steps) + 1, dofmap.n_u)
    if np.shape(u) != shape:
        raise ValueError(f"u must have shape {shape}, got shape {np.shape(u)}")
    mass = assemble_p1_mass(mesh, dofmap)
    rule = triangle_rule(DATA_DEGREE)
    geo = mesh.geometry
    wj = quadrature_weights(rule, geo.areas)
    pts = _element_first(quadrature_points(rule, geo.verts))

    def u_norm(c):
        return float(np.sqrt(max(c @ (mass @ c), 0.0)))

    def l2_norm(fn):
        vals = field_values(fn, pts, "source f")
        return float(np.sqrt(np.sum(wj * vals**2)))

    times = partition.times[1:]
    if isinstance(f, SeparableSource):
        g_norm = l2_norm(f.g)
        source_norms = np.array([abs(_theta_at(f, t)) * g_norm for t in times])
    else:
        source_norms = np.array([l2_norm(lambda x, y, t=t: f(t, x, y)) for t in times])
    # a running sum from ||u^0|| in step order, as the bound reads
    terms = np.concatenate([[u_norm(u[0])], partition.steps * source_norms])
    rhs = np.cumsum(terms)[1:]
    lhs = np.array([u_norm(row) for row in u[1:]])
    bad = ~(lhs <= rhs * (1.0 + _STABILITY_SLACK))
    if bad.any():
        n = int(np.argmax(bad))
        raise AssertionError(f"stability bound violated at step {n + 1}: {lhs[n]} > {rhs[n]}")
    return lhs, rhs
