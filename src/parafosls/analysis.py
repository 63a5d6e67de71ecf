"""Manufactured problems, error quantities, and observed convergence rates.

Errors are always measured at the final time against the analytic
fields, elementwise with a quadrature rule fine enough that the
integration error stays far below the discretization error at the
tested resolutions.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forms import Coefficients, ProblemVariant
from .quadrature import triangle_rule
from .spaces import element_geometry

ERROR_QUANTITIES = ("err_u", "err_grad_u", "err_sigma", "err_div_sigma", "natural_norm")


@dataclass(frozen=True)
class ManufacturedProblem:
    """Analytic solution data for one first-order splitting.

    All callables take (t, x, y) with array-valued x, y; vector fields
    return an array with a leading axis of length 2.
    """

    u: Callable
    du_dt: Callable
    grad_u: Callable
    laplace_u: Callable
    sigma: Callable
    div_sigma: Callable
    f: Callable
    coeffs: Coefficients
    variant: ProblemVariant

    def fields_at(self, t):
        """Freeze time: (u, grad u, sigma, div sigma) as (x, y) callables."""
        return (
            lambda x, y: self.u(t, x, y),
            lambda x, y: self.grad_u(t, x, y),
            lambda x, y: self.sigma(t, x, y),
            lambda x, y: self.div_sigma(t, x, y),
        )


def decaying_sine_problem(variant):
    """Exponentially decaying product-of-sines benchmark solution.

    u(t; x, y) = exp(-2 pi^2 t) sin(pi x) sin(pi y) on the unit square
    with unit diffusion, constant convection beta = (1, 1) and zero
    reaction. The flux and the source follow from the chosen
    first-order splitting.
    """
    variant = ProblemVariant(variant)
    pi = math.pi
    decay = 2.0 * pi**2

    def u(t, x, y):
        return np.exp(-decay * t) * np.sin(pi * x) * np.sin(pi * y)

    def du_dt(t, x, y):
        return -decay * u(t, x, y)

    def grad_u(t, x, y):
        amp = np.exp(-decay * t) * pi
        return np.stack(
            [
                amp * np.cos(pi * x) * np.sin(pi * y),
                amp * np.sin(pi * x) * np.cos(pi * y),
            ]
        )

    def laplace_u(t, x, y):
        return -decay * u(t, x, y)

    def convection(t, x, y):
        # d/dx u + d/dy u, folded into one sine by the addition theorem;
        # the source is evaluated on every time step
        return np.exp(-decay * t) * pi * np.sin(pi * (x + y))

    if variant is ProblemVariant.PRIMARY:
        # flux = grad u; the source reduces to the convective part
        # because u solves the plain heat equation
        def sigma(t, x, y):
            return grad_u(t, x, y)

        def div_sigma(t, x, y):
            return laplace_u(t, x, y)

        def f(t, x, y):
            return -convection(t, x, y)

    else:
        # flux = grad u - beta u
        def sigma(t, x, y):
            g = grad_u(t, x, y)
            return g - u(t, x, y)[None, ...]

        def div_sigma(t, x, y):
            g = grad_u(t, x, y)
            return laplace_u(t, x, y) - g[0] - g[1]

        # du/dt - div sigma leaves the convective part with a plus sign
        def f(t, x, y):
            return convection(t, x, y)

    return ManufacturedProblem(
        u=u,
        du_dt=du_dt,
        grad_u=grad_u,
        laplace_u=laplace_u,
        sigma=sigma,
        div_sigma=div_sigma,
        f=f,
        coeffs=Coefficients.constant(beta=(1.0, 1.0)),
        variant=variant,
    )


@dataclass(frozen=True)
class ErrorReport:
    """Final-time error quantities of one resolution level.

    ``dofs`` counts every unknown of the product space: interior
    scalar vertices plus one flux DOF per edge, boundary edges
    included.
    """

    level: int
    h: float
    k: float
    dofs: int
    err_u: float
    err_grad_u: float
    err_sigma: float
    err_div_sigma: float
    natural_norm: float


def field_error_norms(
    u, grad_u, sigma, div_sigma, u_coeffs, sigma_coeffs, mesh, dofmap, degree=6
):
    """L2 distances between analytic fields and a discrete pair.

    Returns (err_u, err_grad_u, err_sigma, err_div_sigma). The analytic
    fields are (x, y) callables; the discrete pair is given by its
    coefficient vectors (sigma may be None, meaning zero).
    """
    rule = triangle_rule(degree)
    verts, areas, p1_grads, rt_coef, rt_divs = element_geometry(mesh)
    lam = rule.points
    wj = rule.weights[None, :] * (2.0 * areas[:, None])
    pts = np.einsum("qi,eix->eqx", lam, verts)
    x, y = pts[..., 0], pts[..., 1]

    vertex_vals = np.zeros(mesh.num_vertices)
    interior = dofmap.u_dof_of_vertex >= 0
    if u_coeffs is not None:
        vertex_vals[interior] = np.asarray(u_coeffs, dtype=float)[
            dofmap.u_dof_of_vertex[interior]
        ]
    local_u = vertex_vals[mesh.triangles]  # (nE, 3)
    u_h = np.einsum("qi,ei->eq", lam, local_u)
    grad_h = np.einsum("ei,eix->ex", local_u, p1_grads)  # constant per element

    if sigma_coeffs is not None:
        local_s = np.asarray(sigma_coeffs, dtype=float)[mesh.triangle_edges]
        rt_vals = rt_coef[:, None, :, None] * (
            pts[:, :, None, :] - verts[:, None, :, :]
        )
        sig_h = np.einsum("ei,eqix->eqx", local_s, rt_vals)
        div_h = np.einsum("ei,ei->e", local_s, rt_divs)
    else:
        sig_h = np.zeros_like(pts)
        div_h = np.zeros(mesh.num_triangles)

    u_ex = np.broadcast_to(u(x, y), x.shape)
    grad_ex = np.moveaxis(np.broadcast_to(grad_u(x, y), (2,) + x.shape), 0, -1)
    sig_ex = np.moveaxis(np.broadcast_to(sigma(x, y), (2,) + x.shape), 0, -1)
    div_ex = np.broadcast_to(div_sigma(x, y), x.shape)

    err_u = np.sum(wj * (u_ex - u_h) ** 2)
    grad_diff = grad_ex - grad_h[:, None, :]
    err_grad = np.sum(wj * np.einsum("eqx,eqx->eq", grad_diff, grad_diff))
    sig_diff = sig_ex - sig_h
    err_sig = np.sum(wj * np.einsum("eqx,eqx->eq", sig_diff, sig_diff))
    err_div = np.sum(wj * (div_ex - div_h[:, None]) ** 2)
    return (
        float(np.sqrt(err_u)),
        float(np.sqrt(err_grad)),
        float(np.sqrt(err_sig)),
        float(np.sqrt(err_div)),
    )


def compute_errors(final_state, problem, mesh, dofmap, k, final_time):
    """Error report for the final state of a run.

    The natural norm combines the gradient, flux and (step-weighted)
    divergence errors: sqrt(err_grad^2 + err_sigma^2 + k err_div^2).
    """
    fields = problem.fields_at(final_time)
    err_u, err_grad, err_sig, err_div = field_error_norms(
        *fields,
        final_state.u_coeffs,
        final_state.sigma_coeffs,
        mesh,
        dofmap,
    )
    natural = math.sqrt(err_grad**2 + err_sig**2 + k * err_div**2)
    return ErrorReport(
        level=mesh.level,
        h=mesh.mesh_width(),
        k=float(k),
        dofs=dofmap.total,
        err_u=err_u,
        err_grad_u=err_grad,
        err_sigma=err_sig,
        err_div_sigma=err_div,
        natural_norm=natural,
    )


def observed_rates(reports):
    """Per-quantity slopes log2(err_{L-1} / err_L) between consecutive levels.

    Needs at least two reports ordered by level with halving mesh
    width. A zero error in a denominator yields NaN for that slope.
    """
    if len(reports) < 2:
        raise ValueError("need at least two reports to measure rates")
    rates = {}
    for name in ERROR_QUANTITIES:
        values = [getattr(r, name) for r in reports]
        slopes = []
        for coarse, fine in zip(values[:-1], values[1:]):
            if fine == 0.0 or coarse == 0.0:
                slopes.append(float("nan"))
            else:
                slopes.append(math.log2(coarse / fine))
        rates[name] = slopes
    return rates
