import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from parafosls import solver
from parafosls.analysis import (
    ERROR_QUANTITIES,
    compute_errors,
    decaying_sine_problem,
    observed_rates,
)
from parafosls.checks import L2_RATE_BAND, NATURAL_RATE_BAND, in_band
from parafosls.forms import FormAssembler
from parafosls.projection import elliptic_project
from parafosls.solver import CoerciveFactorHandle

from oracles import eval_discrete_function

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def discrete_pair_as_callables(u_coeffs, sigma_coeffs, mesh, dofmap):
    """Wrap a discrete pair as pointwise-exact vectorized fields."""

    def evaluate(x, y):
        xs = np.broadcast_to(np.asarray(x, dtype=float), np.broadcast(x, y).shape)
        ys = np.broadcast_to(np.asarray(y, dtype=float), np.broadcast(x, y).shape)
        us = np.empty(xs.shape)
        grads = np.empty((2,) + xs.shape)
        sigs = np.empty((2,) + xs.shape)
        divs = np.empty(xs.shape)
        for idx in np.ndindex(xs.shape):
            u, g, s, d = eval_discrete_function(
                u_coeffs, sigma_coeffs, mesh, dofmap, (xs[idx], ys[idx])
            )
            us[idx] = u
            grads[(0,) + idx], grads[(1,) + idx] = g
            sigs[(0,) + idx], sigs[(1,) + idx] = s
            divs[idx] = d
        return us, grads, sigs, divs

    return (
        lambda x, y: evaluate(x, y)[0],
        lambda x, y: evaluate(x, y)[1],
        lambda x, y: evaluate(x, y)[2],
        lambda x, y: evaluate(x, y)[3],
    )


@pytest.mark.parametrize("variant", ["primary", "alternative"])
def test_projection_is_identity_on_discrete_pairs(mesh_chain, dofmaps, variant, rng):
    """Projecting a function that already lives in the discrete space
    reproduces its coefficients, exercising the full quadrature path."""
    m, dm = mesh_chain[1], dofmaps[1]
    problem = decaying_sine_problem(variant)
    c = rng.standard_normal(dm.total)
    fields = discrete_pair_as_callables(c[: dm.n_u], c[dm.n_u :], m, dm)
    result = elliptic_project(*fields, m, dm, problem.coeffs, 0.05, variant)
    assert np.abs(result.u_coeffs - c[: dm.n_u]).max() <= 1e-10
    assert np.abs(result.sigma_coeffs - c[dm.n_u :]).max() <= 1e-10


def test_projection_identity_algebraic(mesh_chain, dofmaps, rng):
    """Same statement at the linear-algebra level: B c as data returns c."""
    m, dm = mesh_chain[2], dofmaps[2]
    problem = decaying_sine_problem("primary")
    asm = FormAssembler(m, dm, problem.coeffs, "primary")
    B = asm.nonsymmetric_matrix(1e-3)
    c = rng.standard_normal(dm.total)
    sol = CoerciveFactorHandle(B).solve(B @ c).solution
    assert np.abs(sol - c).max() <= 1e-10 * max(1.0, np.abs(c).max())


@pytest.mark.parametrize("variant", ["primary", "alternative"])
def test_defining_equation_residual(mesh_chain, dofmaps, variant):
    """b(projection, basis_i) matches b(exact, basis_i) for every i."""
    m, dm = mesh_chain[2], dofmaps[2]
    problem = decaying_sine_problem(variant)
    fields = problem.fields_at(0.1)
    k = 0.01
    result = elliptic_project(*fields, m, dm, problem.coeffs, k, variant)
    asm = FormAssembler(m, dm, problem.coeffs, variant)
    lhs = asm.nonsymmetric_matrix(k) @ np.concatenate(
        [result.u_coeffs, result.sigma_coeffs]
    )
    rhs = asm.nonsymmetric_load_from_fields(k, *fields)
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() <= 1e-9 * scale


def projection_report(problem, mesh, dofmap, k):
    """The error report of the projection of the exact pair at t = 0.1."""
    res = elliptic_project(
        *problem.fields_at(0.1), mesh, dofmap, problem.coeffs, k, problem.variant
    )
    return compute_errors(res.u_coeffs, res.sigma_coeffs, problem, mesh, dofmap, k, 0.1)


def assert_projection_rates(problem, mesh_chain, dofmaps, k):
    """First order in the natural norm, second order for the scalar in L2,
    between levels 2, 3 and 4."""
    rates = observed_rates(
        [projection_report(problem, mesh_chain[L], dofmaps[L], k) for L in (2, 3, 4)]
    )
    assert all(in_band(rate, L2_RATE_BAND) for rate in rates["err_u"])
    assert all(in_band(rate, NATURAL_RATE_BAND) for rate in rates["natural_norm"])


@pytest.mark.parametrize("k", [1e-1, 1e-3, 1e-5])
def test_projection_rates(mesh_chain, dofmaps, k):
    assert_projection_rates(decaying_sine_problem("primary"), mesh_chain, dofmaps, k)


def test_projection_rates_alternative_variant(mesh_chain, dofmaps):
    assert_projection_rates(decaying_sine_problem("alternative"), mesh_chain, dofmaps, 1e-3)


def test_scalar_superconvergence_against_natural_norm(mesh_chain, dofmaps):
    """The scalar L2 error is one order better than the natural-norm error."""
    problem = decaying_sine_problem("primary")
    coarse, fine = (
        projection_report(problem, mesh_chain[L], dofmaps[L], 1e-3) for L in (3, 4)
    )
    # consistent with ||u - proj_u|| <= C h ||pair - proj||_k
    assert fine.err_u / fine.natural_norm <= 0.6 * (coarse.err_u / coarse.natural_norm)


def test_result_records_inputs(mesh_chain, dofmaps):
    """The result is the pair of coefficient arrays: it unpacks as a run's
    result does, and its fields are the same arrays. The solve's residual
    contract is checked on the handle (tests/test_solver.py)."""
    problem = decaying_sine_problem("primary")
    res = elliptic_project(
        *problem.fields_at(0.1),
        mesh_chain[1],
        dofmaps[1],
        problem.coeffs,
        0.05,
        "primary",
    )
    u, sigma = res
    assert u is res.u_coeffs and sigma is res.sigma_coeffs
    assert u.shape == (dofmaps[1].n_u,)
    assert sigma.shape == (dofmaps[1].n_sigma,)


@pytest.mark.parametrize("variant", ["primary", "alternative"])
@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("k", [1e-8, 1e-3, 1.0])
def test_projection_matches_default_lu(mesh_chain, dofmaps, variant, level, k):
    """The symmetric-mode solve agrees with a general LU solve."""
    m, dm = mesh_chain[level], dofmaps[level]
    problem = decaying_sine_problem(variant)
    fields = problem.fields_at(0.1)
    result = elliptic_project(*fields, m, dm, problem.coeffs, k, variant)
    asm = FormAssembler(m, dm, problem.coeffs, variant)
    reference = spla.splu(asm.nonsymmetric_matrix(k).tocsc()).solve(
        asm.nonsymmetric_load_from_fields(k, *fields)
    )
    x = np.concatenate([result.u_coeffs, result.sigma_coeffs])
    assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


def test_projection_fill_below_default_lu(mesh_chain, dofmaps, monkeypatch):
    m, dm = mesh_chain[3], dofmaps[3]
    problem = decaying_sine_problem("primary")
    fills = []
    factorize = solver.FactorHandle.__init__

    def recording(handle, matrix):
        factorize(handle, matrix)
        fills.append(handle.lu.nnz)

    monkeypatch.setattr(solver.FactorHandle, "__init__", recording)
    elliptic_project(*problem.fields_at(0.1), m, dm, problem.coeffs, 1e-3, "primary")
    matrix = FormAssembler(m, dm, problem.coeffs, "primary").nonsymmetric_matrix(1e-3)
    (projection_fill,) = fills
    assert projection_fill < spla.splu(matrix.tocsc()).nnz


def test_projection_errors_match_benchmark_reference(mesh_chain, dofmaps):
    """The recorded benchmark errors, levels 2-5, at both ends and the
    most roundoff-sensitive point of its k grid, to its 1e-10 relative."""
    recorded = json.loads(REFERENCE.read_text())
    problem = decaying_sine_problem("primary")
    for index in (0, 18, 23):
        k = recorded["k_grid"][index]
        for level in (2, 3, 4, 5):
            report = projection_report(problem, mesh_chain[level], dofmaps[level], k)
            expected = recorded["projection-ksweep"][str(index)][str(level)]
            assert len(expected) == len(ERROR_QUANTITIES)
            for name, e in zip(ERROR_QUANTITIES, expected):
                assert abs(getattr(report, name) - e) <= 1e-10 * abs(e), (index, level, name)
