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

from dataclasses import dataclass, field
from typing import Callable, Optional

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
from .spaces import _coefficient_vector, field_values, quadrature_points, quadrature_weights

# Steps within this relative distance count as one step size and share
# one factorization; the difference they make to a solution is far below
# the solver's residual contract.
_STEP_RTOL = 1e-12
_STABILITY_SLACK = 1e-10  # relative roundoff room of the per-step stability bound


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
        if num_steps < 1:
            raise ValueError("need at least one step")
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


def _from_problem(problem, name, value):
    """value, else problem.<name>; raises ValueError naming it when neither is set."""
    value = getattr(problem, name, None) if value is None else value
    if value is None:
        raise ValueError(f"{name} is required: the problem given has no attribute {name!r}")
    return value


def backward_euler_run(
    problem,
    partition,
    mesh,
    dofmap,
    coeffs=None,
    variant=None,
    initial=None,
):
    """Run the least-squares backward Euler scheme over a partition.

    Parameters
    ----------
    problem : manufactured problem or callable
        Either an object with attributes ``f`` (source, signature
        (t, x, y)), ``coeffs`` and ``variant``, or the source callable
        itself (then ``coeffs`` and ``variant`` are required, and a
        missing one raises ValueError naming it before any assembly). A
        ``SeparableSource`` has its field g integrated once per run of
        equal steps; a theta(t_n) that is not finite raises ValueError
        before that step's solve.
    initial : (n_u,) array or None
        Scalar initial coefficients; zero if None. A wrong length or a
        non-finite entry raises ValueError naming ``initial``.

    Returns
    -------
    list of SystemState, one per time level including the initial one.
    Only the final state keeps its flux coefficients.
    """
    f = getattr(problem, "f", problem)
    separable = isinstance(f, SeparableSource)
    coeffs = _from_problem(problem, "coeffs", coeffs)
    variant = _from_problem(problem, "variant", variant)

    steps = partition.steps
    times = partition.times
    n_u = dofmap.n_u
    if initial is None:
        initial = np.zeros(n_u)
    initial = _coefficient_vector(initial, n_u, "initial")

    states = [SystemState(u_coeffs=initial, sigma_coeffs=None, time=0.0)]
    # The scalar iterates live in one block allocated up front: a view of
    # each step's solution would pin its flux part as well, and a fresh
    # array per step fragments the heap, so that peak memory would climb
    # from run to run in a long-lived process.
    iterates = np.empty((len(steps), n_u))
    assembler = FormAssembler(mesh, dofmap, coeffs, variant)
    handle = None
    current_k = None
    image = None  # k to_tests g of a separable source, for the current step size
    u_prev = initial
    last = len(steps)
    for n, k in enumerate(steps, start=1):
        if handle is None or not _same_step(k, current_k):
            handle = solver.FactorHandle(assembler.total_matrix(k))
            current_k = k
            image = None
        t_n = times[n]
        if separable:
            scale = _theta_at(f, t_n)
            rhs = assembler.load_vector(current_k, w=u_prev)  # builds the operators first
            image = assembler.source_load(current_k, f.g) if image is None else image
            rhs += scale * image
        else:
            rhs = assembler.load_vector(current_k, f=lambda x, y: f(t_n, x, y), w=u_prev)
        try:
            report = handle.solve(rhs)
        except solver.SolverError as exc:
            raise solver.SolverError(f"time step {n} failed: {exc}") from exc
        sol = report.solution
        u_n = iterates[n - 1]
        u_n[:] = sol[:n_u]
        states.append(
            SystemState(
                u_coeffs=u_n,
                sigma_coeffs=sol[n_u:].copy() if n == last else None,
                time=float(t_n),
            )
        )
        u_prev = u_n
    return states


def galerkin_be_reference(f, partition, mesh, dofmap, initial=None):
    """Backward Euler for the standard Galerkin heat discretization.

    Solves (1/k)<u^n, v> + <grad u^n, grad v> = (1/k)<u^{n-1}, v>
    + <f^n, v> on the interior-vertex P1 space and returns the list of
    coefficient vectors, including the initial one. Every source is
    evaluated as f(t_n, x, y); ``initial`` is checked as in the scheme.
    """
    if initial is None:
        initial = np.zeros(dofmap.n_u)
    trajectory = [_coefficient_vector(initial, dofmap.n_u, "initial")]
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
        rhs = mass @ trajectory[-1] / current_k + load
        trajectory.append(handle.solve(rhs).solution)
    return trajectory


def check_stability_bound(states, f, partition, mesh, dofmap):
    """Verify the per-step a priori bound of the scalar iterates.

    The n-th iterate must satisfy
    ||u^n|| <= sum_{j<=n} k_j ||f^j|| + ||u^0||, up to a relative
    slack. Returns (lhs, rhs) arrays over n = 1..N; raises
    AssertionError on violation, a NaN norm included. For a
    ``SeparableSource`` theta g, ||f^j|| = |theta(t_j)| ||g|| with
    ||g|| integrated once; a theta(t_j) that is not finite raises
    ValueError.
    """
    mass = assemble_p1_mass(mesh, dofmap)
    rule = triangle_rule(DATA_DEGREE)
    geo = mesh.geometry
    wj, pts = quadrature_weights(rule, geo.areas), quadrature_points(rule, geo.verts)

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
    terms = np.concatenate([[u_norm(states[0].u_coeffs)], partition.steps * source_norms])
    rhs = np.cumsum(terms)[1:]
    lhs = np.array([u_norm(state.u_coeffs) for state in states[1:]])
    bad = ~(lhs <= rhs * (1.0 + _STABILITY_SLACK))
    if bad.any():
        n = int(np.argmax(bad))
        raise AssertionError(f"stability bound violated at step {n + 1}: {lhs[n]} > {rhs[n]}")
    return lhs, rhs
