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

from .evolution import SeparableSource
from .forms import DATA_DEGREE, Coefficients, ProblemVariant, _contract, _step, element_blocks
from .quadrature import triangle_rule
from .spaces import (
    field_table,
    p1_vertex_values,
    quadrature_points,
    quadrature_weights,
    rt0_edge_values,
    rt0_values,
)

ERROR_QUANTITIES = ("err_u", "err_grad_u", "err_sigma", "err_div_sigma", "natural_norm")


@dataclass(frozen=True)
class ManufacturedProblem:
    """Analytic solution data for one first-order splitting.

    All callables take (t, x, y) with array-valued x, y; vector fields
    return an array with a leading axis of length 2. The source f may
    be a plain callable or a ``SeparableSource``.
    """

    u: Callable
    grad_u: Callable
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
    first-order splitting. The source is a ``SeparableSource`` with
    theta(t) = exp(-2 pi^2 t).
    """
    variant = ProblemVariant(variant)
    pi = math.pi
    decay = 2.0 * pi**2

    def u(t, x, y):
        return np.exp(-decay * t) * np.sin(pi * x) * np.sin(pi * y)

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

    def theta(t):
        return np.exp(-decay * t)

    def convection(x, y):
        # (d/dx u + d/dy u) / theta, folded into one sine by the
        # addition theorem
        return pi * np.sin(pi * (x + y))

    if variant is ProblemVariant.PRIMARY:
        # flux = grad u; the source reduces to the convective part
        # because u solves the plain heat equation
        def sigma(t, x, y):
            return grad_u(t, x, y)

        def div_sigma(t, x, y):
            return laplace_u(t, x, y)

        def g(x, y):
            return -convection(x, y)

    else:
        # flux = grad u - beta u
        def sigma(t, x, y):
            grad = grad_u(t, x, y)
            return grad - u(t, x, y)[None, ...]

        def div_sigma(t, x, y):
            grad = grad_u(t, x, y)
            return laplace_u(t, x, y) - grad[0] - grad[1]

        # du/dt - div sigma leaves the convective part with a plus sign
        g = convection

    return ManufacturedProblem(
        u=u,
        grad_u=grad_u,
        sigma=sigma,
        div_sigma=div_sigma,
        f=SeparableSource(theta, g),
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
    u, grad_u, sigma, div_sigma, u_coeffs, sigma_coeffs, mesh, dofmap
):
    """L2 distances between analytic fields and a discrete pair.

    Returns (err_u, err_grad_u, err_sigma, err_div_sigma). The analytic
    fields are (x, y) callables; the discrete pair is given by its
    coefficient vectors (sigma may be None, meaning zero). A field of
    the wrong shape or with a value that is not finite, and a vector of
    the wrong length, raise ValueError naming it.

    The points, RT0 values, field values and differences are formed
    element-last, one block of ``forms.BLOCK_ELEMENTS`` elements at a
    time. Each block writes its rows of one element-first (nE, nQ)
    weighted integrand per quantity, and each integrand is summed
    whole, so the sums and their order are those of a single
    whole-mesh block.
    """
    rule = triangle_rule(DATA_DEGREE)
    geo = mesh.geometry
    local_u = p1_vertex_values(u_coeffs, mesh, dofmap, "u_coeffs")  # (nE, 3)
    grad_h = np.einsum("ei,eix->ex", local_u, geo.p1_grads)  # constant per element
    if sigma_coeffs is not None:
        local_s = rt0_edge_values(sigma_coeffs, mesh, dofmap, "sigma_coeffs")
        div_h = np.einsum("ei,ei->e", local_s, geo.rt_divs)
    else:
        div_h = np.zeros(mesh.num_triangles)

    err_u, err_grad, err_sig, err_div = np.empty(
        (4, mesh.num_triangles, rule.weights.size)
    )
    for block in element_blocks(mesh.num_triangles):
        wj = quadrature_weights(rule, geo.areas[block]).T
        points = quadrature_points(rule, geo.verts[block])
        u_h = np.einsum("qi,ei->eq", rule.points, local_u[block]).T
        if sigma_coeffs is not None:
            rt_vals = rt0_values(geo.rt_coef[block], geo.verts[block], points)
            sig_h = _contract(local_s[block].T[:, None, None], rt_vals.transpose(1, 2, 0, 3))
        else:
            sig_h = np.zeros((2,) + wj.shape)

        u_ex = field_table(u, points, "u")
        grad_ex = field_table(grad_u, points, "grad_u", (2,))
        sig_ex = field_table(sigma, points, "sigma", (2,))
        div_ex = field_table(div_sigma, points, "div_sigma")

        err_u[block] = (wj * (u_ex - u_h) ** 2).T
        grad_diff = grad_ex - grad_h[block].T[:, None]
        err_grad[block] = (wj * _contract(grad_diff, grad_diff)).T
        sig_diff = sig_ex - sig_h
        err_sig[block] = (wj * _contract(sig_diff, sig_diff)).T
        err_div[block] = (wj * (div_ex - div_h[block]) ** 2).T
    return tuple(
        float(np.sqrt(np.sum(integrand)))
        for integrand in (err_u, err_grad, err_sig, err_div)
    )


def compute_errors(u_coeffs, sigma_coeffs, problem, mesh, dofmap, k, final_time):
    """Error report of the discrete pair (u_coeffs, sigma_coeffs) at final_time.

    The natural norm is sqrt(err_grad^2 + err_sigma^2 + k err_div^2); a
    step k that is not positive and finite raises ValueError naming it.
    """
    k = _step(k)
    fields = problem.fields_at(final_time)
    err_u, err_grad, err_sig, err_div = field_error_norms(
        *fields, u_coeffs, sigma_coeffs, mesh, dofmap
    )
    natural = math.sqrt(err_grad**2 + err_sig**2 + k * err_div**2)
    return ErrorReport(
        level=mesh.level,
        h=mesh.mesh_width(),
        k=k,
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
