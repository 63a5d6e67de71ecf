import math
import re

import numpy as np
import pytest

from parafosls import forms
from parafosls.analysis import (
    ErrorReport,
    compute_errors,
    decaying_sine_problem,
    field_error_norms,
    observed_rates,
)

from oracles import whole_mesh_error_norms

DECAY = 2.0 * math.pi**2


@pytest.mark.parametrize("variant", ["primary", "alternative"])
def test_manufactured_consistency(variant, rng):
    """The analytic fields satisfy the first-order system pointwise."""
    problem = decaying_sine_problem(variant)
    t = rng.uniform(0.0, 0.1, size=100)
    x = rng.uniform(0.0, 1.0, size=100)
    y = rng.uniform(0.0, 1.0, size=100)

    sigma = problem.sigma(t, x, y)
    div_sigma = problem.div_sigma(t, x, y)
    grad = problem.grad_u(t, x, y)
    u = problem.u(t, x, y)
    du_dt = -DECAY * u  # u decays like exp(-2 pi^2 t)

    # scalar equation: du/dt - div sigma (- beta . grad u) + gamma u = f
    if variant == "primary":
        residual_scalar = (
            du_dt
            - div_sigma
            - (grad[0] + grad[1])
            - problem.f(t, x, y)
        )
        residual_flux = sigma - grad
    else:
        residual_scalar = du_dt - div_sigma - problem.f(t, x, y)
        residual_flux = sigma - (grad - np.stack([u, u]))
    assert np.abs(residual_scalar).max() <= 1e-10
    assert np.abs(residual_flux).max() <= 1e-10


def test_solution_peak_value():
    problem = decaying_sine_problem("primary")
    assert np.isclose(problem.u(0.0, 0.5, 0.5), 1.0)


def test_admissibility_margin_is_zero():
    problem = decaying_sine_problem("primary")
    x = np.linspace(0, 1, 7)
    margin = 0.5 * problem.coeffs.div_beta(x, x) + problem.coeffs.gamma(x, x)
    assert np.allclose(margin, 0.0)
    assert np.all(margin >= 0.0)


def test_primary_source_is_pure_convection(rng):
    """du/dt cancels the diffusion for this solution, leaving -beta.grad u."""
    problem = decaying_sine_problem("primary")
    t, x, y = rng.uniform(0.05, 0.1, 3), rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)
    grad = problem.grad_u(t, x, y)
    assert np.allclose(problem.f(t, x, y), -(grad[0] + grad[1]))


def test_zero_state_errors_match_analytic_norms(mesh_chain, dofmaps):
    """Errors of the zero pair are the norms of the exact fields:
    ||u(T)|| = e^{-2 pi^2 T}/2, ||grad u(T)|| = pi e^{-2 pi^2 T}/sqrt(2),
    ||div sigma(T)|| = pi^2 e^{-2 pi^2 T} (primary splitting)."""
    problem = decaying_sine_problem("primary")
    m, dm = mesh_chain[3], dofmaps[3]
    T = 0.1
    rep = compute_errors(
        np.zeros(dm.n_u), np.zeros(dm.n_sigma), problem, m, dm, k=0.01, final_time=T
    )
    amp = math.exp(-DECAY * T)
    assert np.isclose(rep.err_u, 0.5 * amp, rtol=1e-9)
    assert np.isclose(rep.err_grad_u, math.pi * amp / math.sqrt(2.0), rtol=1e-9)
    assert np.isclose(rep.err_sigma, rep.err_grad_u, rtol=1e-12)
    assert np.isclose(rep.err_div_sigma, math.pi**2 * amp, rtol=1e-9)


def test_natural_norm_identity(mesh_chain, dofmaps, rng):
    problem = decaying_sine_problem("alternative")
    m, dm = mesh_chain[2], dofmaps[2]
    u, sigma = rng.standard_normal(dm.n_u), rng.standard_normal(dm.n_sigma)
    k = 0.025
    rep = compute_errors(u, sigma, problem, m, dm, k=k, final_time=0.1)
    recomputed = math.sqrt(
        rep.err_grad_u**2 + rep.err_sigma**2 + k * rep.err_div_sigma**2
    )
    assert abs(rep.natural_norm - recomputed) <= 1e-12 * rep.natural_norm


@pytest.mark.parametrize("k", [0.0, -1e6, np.nan, np.inf])
def test_error_report_names_a_bad_step(mesh_chain, dofmaps, k):
    """k = nan used to give natural_norm = nan, k = -1e6 a math domain error."""
    problem = decaying_sine_problem("primary")
    m, dm = mesh_chain[1], dofmaps[1]
    message = "^time step k must be positive and finite, got " + re.escape(str(k)) + "$"
    with pytest.raises(ValueError, match=message):
        compute_errors(np.zeros(dm.n_u), None, problem, m, dm, k=k, final_time=0.1)


def test_report_metadata(mesh_chain, dofmaps):
    problem = decaying_sine_problem("primary")
    m, dm = mesh_chain[2], dofmaps[2]
    rep = compute_errors(np.zeros(dm.n_u), None, problem, m, dm, k=0.025, final_time=0.1)
    assert rep.level == 2
    assert rep.h == 0.25
    assert rep.dofs == dm.total


def test_interpolant_errors_are_positive(mesh_chain, dofmaps):
    """Even the nodal interpolant of the transcendental solution keeps a
    strictly positive distance in every measured quantity."""
    problem = decaying_sine_problem("primary")
    m, dm = mesh_chain[2], dofmaps[2]
    T = 0.1
    interior = dm.u_dof_of_vertex >= 0
    coeffs = problem.u(T, m.vertices[interior, 0], m.vertices[interior, 1])
    errs = field_error_norms(
        *problem.fields_at(T), coeffs, None, m, dm
    )
    assert all(e > 0.0 for e in errs)
    # the scalar interpolation error is small but nonzero
    assert errs[0] < 0.05


@pytest.mark.parametrize("variant", ["primary", "alternative"])
@pytest.mark.parametrize("level", [2, 3])
def test_blocked_error_norms_equal_whole_mesh(mesh_chain, dofmaps, variant, level, rng, monkeypatch):
    """Blocks of 7 elements (a ragged last one: 64 = 9 * 7 + 1 and
    256 = 36 * 7 + 4) give the whole-mesh norms bitwise, with and
    without a flux."""
    m, dm = mesh_chain[level], dofmaps[level]
    monkeypatch.setattr(forms, "BLOCK_ELEMENTS", 7)
    fields = decaying_sine_problem(variant).fields_at(0.1)
    u, sigma = rng.standard_normal(dm.n_u), rng.standard_normal(dm.n_sigma)
    for sigma_coeffs in (sigma, None):
        blocked = field_error_norms(*fields, u, sigma_coeffs, m, dm)
        assert blocked == whole_mesh_error_norms(*fields, u, sigma_coeffs, m, dm)


def make_reports(errors):
    return [
        ErrorReport(
            level=i,
            h=2.0**-i,
            k=0.1,
            dofs=10 * (i + 1),
            err_u=e,
            err_grad_u=e,
            err_sigma=e,
            err_div_sigma=e,
            natural_norm=e,
        )
        for i, e in enumerate(errors)
    ]


def test_observed_rates_halving():
    rates = observed_rates(make_reports([1.0, 0.5, 0.25]))
    assert rates["err_u"] == [1.0, 1.0]


def test_observed_rates_quartering():
    rates = observed_rates(make_reports([1.0, 0.25]))
    assert rates["err_u"] == [2.0]


def test_observed_rates_zero_marker():
    rates = observed_rates(make_reports([1.0, 0.0]))
    assert math.isnan(rates["err_u"][0])


def test_observed_rates_requires_two_reports():
    with pytest.raises(ValueError):
        observed_rates(make_reports([1.0]))
