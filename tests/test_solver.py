import numpy as np
import pytest
import scipy.sparse as sp

from parafosls.evolution import TimePartition, backward_euler_run, l2_project_initial
from parafosls.forms import Coefficients, FormAssembler, assemble_total_form
from parafosls.solver import (
    NotSPDError,
    SolverError,
    SPDFactorHandle,
    apply,
    factorize_reusable,
    solve_general,
    solve_spd,
)


def test_identity_system(rng):
    b = rng.standard_normal(12)
    report = solve_spd(sp.identity(12, format="csr"), b)
    assert np.array_equal(report.solution, b)
    assert report.relative_residual == 0.0


def test_small_spd_system():
    # [[2,1],[1,2]] x = (3,3) has solution (1,1) by hand elimination
    matrix = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    report = solve_spd(matrix, np.array([3.0, 3.0]))
    assert np.allclose(report.solution, [1.0, 1.0], atol=1e-14)
    assert report.relative_residual <= 1e-10


def test_small_nonsymmetric_system():
    # [[1,1],[0,1]] x = (2,1) -> x = (1,1) by back substitution
    matrix = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    report = solve_general(matrix, np.array([2.0, 1.0]))
    assert np.allclose(report.solution, [1.0, 1.0], atol=1e-14)


def test_level0_system_matches_dense_oracle(mesh_chain, dofmaps):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    matrix = assemble_total_form(mesh_chain[0], dofmaps[0], coeffs, 0.1, "primary")
    b = np.arange(1.0, 10.0)
    x = solve_spd(matrix, b).solution
    oracle = np.linalg.solve(matrix.toarray(), b)
    assert np.allclose(x, oracle, rtol=1e-10, atol=1e-12)


def test_projection_system_matches_dense_oracle(mesh_chain, dofmaps, rng):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    asm = FormAssembler(mesh_chain[1], dofmaps[1], coeffs, 0.01, "primary")
    matrix = asm.nonsymmetric_matrix()
    b = rng.standard_normal(dofmaps[1].total)
    x = solve_general(matrix, b).solution
    oracle = np.linalg.solve(matrix.toarray(), b)
    assert np.allclose(x, oracle, rtol=1e-10, atol=1e-12)


def test_factor_reuse_matches_direct_solve(mesh_chain, dofmaps, rng):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    matrix = assemble_total_form(mesh_chain[1], dofmaps[1], coeffs, 0.1, "primary")
    handle = factorize_reusable(matrix)
    b1 = rng.standard_normal(dofmaps[1].total)
    b2 = rng.standard_normal(dofmaps[1].total)
    x1 = apply(handle, b1)
    assert np.abs(x1 - solve_spd(matrix, b1).solution).max() <= 1e-12
    # applies with different right-hand sides are independent
    x2 = apply(handle, b2)
    assert np.abs(apply(handle, b1) - x1).max() == 0.0
    assert np.abs(x2 - solve_spd(matrix, b2).solution).max() <= 1e-12


def test_deterministic_solutions(mesh_chain, dofmaps):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    matrix = assemble_total_form(mesh_chain[2], dofmaps[2], coeffs, 0.01, "primary")
    b = np.sin(np.arange(dofmaps[2].total))
    x1 = solve_spd(matrix, b).solution
    x2 = solve_spd(matrix, b).solution
    assert np.array_equal(x1, x2)


@pytest.mark.parametrize("variant", ["primary", "alternative"])
def test_symmetric_mode_matches_general_lu(mesh_chain, dofmaps, variant, rng):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    matrix = assemble_total_form(mesh_chain[3], dofmaps[3], coeffs, 0.01, variant)
    handle = SPDFactorHandle(matrix)
    for b in rng.standard_normal((3, dofmaps[3].total)):
        x = handle.solve(b).solution
        reference = solve_general(matrix, b).solution
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


def test_non_finite_rhs_rejected_before_solving():
    handle = SPDFactorHandle(sp.identity(3, format="csr"))
    handle.lu = None  # any triangular solve or refinement sweep would fail differently
    with pytest.raises(SolverError, match="non-finite right-hand side: 1 of 3"):
        handle.solve(np.array([1.0, np.nan, 0.0]))


def test_indefinite_matrix_detected():
    matrix = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NotSPDError, match="curvature"):
        solve_spd(matrix, np.array([1.0, 1.0]))


def test_singular_matrix_raises():
    matrix = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        solve_general(matrix, np.array([1.0, 0.0]))


def test_residual_contract_on_reports(mesh_chain, dofmaps, rng):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    matrix = assemble_total_form(mesh_chain[2], dofmaps[2], coeffs, 1e-3, "alternative")
    b = rng.standard_normal(dofmaps[2].total)
    for tol in (1e-8, 1e-12):
        report = solve_spd(matrix, b, tol=tol)
        assert report.relative_residual <= tol


def test_reused_factor_reproduces_per_step_solving(mesh_chain, dofmaps):
    """A 4096-step constant-k run with one factorization matches solving
    each step from scratch."""
    from parafosls.analysis import decaying_sine_problem

    m, dm = mesh_chain[3], dofmaps[3]
    problem = decaying_sine_problem("primary")
    n_steps = 4096
    k = 0.1 / n_steps
    partition = TimePartition.uniform(0.1, n_steps)
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)

    states = backward_euler_run(problem, partition, m, dm, initial=initial)

    asm = FormAssembler(m, dm, problem.coeffs, k, problem.variant)
    matrix = asm.total_matrix()
    u_prev = initial
    worst = 0.0
    times = partition.times
    for n in range(1, n_steps + 1):
        rhs = asm.load_vector(f=lambda x, y: problem.f(times[n], x, y), w=u_prev)
        sol = solve_spd(matrix, rhs).solution
        u_prev = sol[: dm.n_u]
        diff = np.abs(states[n].u_coeffs - u_prev).max()
        worst = max(worst, diff / max(np.abs(u_prev).max(), 1e-30))
    assert worst <= 1e-8
