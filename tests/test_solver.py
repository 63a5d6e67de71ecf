from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from parafosls.evolution import TimePartition, backward_euler_run, l2_project_initial
from parafosls.forms import Coefficients, FormAssembler
from parafosls import solver
from parafosls.solver import (
    CoerciveFactorHandle,
    FactorHandle,
    NotCoerciveError,
    NotSPDError,
    SolverError,
    extended_residual,
    solve_spd,
)

from oracles import whole_extended_residual


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
    report = CoerciveFactorHandle(matrix).solve(np.array([2.0, 1.0]))
    assert np.allclose(report.solution, [1.0, 1.0], atol=1e-14)


def test_level0_system_matches_dense_oracle(mesh_chain, dofmaps):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    matrix = FormAssembler(
        mesh_chain[0], dofmaps[0], coeffs, "primary"
    ).total_matrix(0.1)
    b = np.arange(1.0, 10.0)
    x = solve_spd(matrix, b).solution
    oracle = np.linalg.solve(matrix.toarray(), b)
    assert np.allclose(x, oracle, rtol=1e-10, atol=1e-12)


def test_projection_system_matches_dense_oracle(mesh_chain, dofmaps, rng):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    asm = FormAssembler(mesh_chain[1], dofmaps[1], coeffs, "primary")
    matrix = asm.nonsymmetric_matrix(0.01)
    b = rng.standard_normal(dofmaps[1].total)
    x = CoerciveFactorHandle(matrix).solve(b).solution
    oracle = np.linalg.solve(matrix.toarray(), b)
    assert np.allclose(x, oracle, rtol=1e-10, atol=1e-12)


def test_factor_reuse_matches_direct_solve(mesh_chain, dofmaps, rng):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    matrix = FormAssembler(
        mesh_chain[1], dofmaps[1], coeffs, "primary"
    ).total_matrix(0.1)
    handle = FactorHandle(matrix)
    b1 = rng.standard_normal(dofmaps[1].total)
    b2 = rng.standard_normal(dofmaps[1].total)
    x1 = handle.solve(b1).solution
    assert np.abs(x1 - solve_spd(matrix, b1).solution).max() <= 1e-12
    # solves with different right-hand sides are independent
    x2 = handle.solve(b2).solution
    assert np.abs(handle.solve(b1).solution - x1).max() == 0.0
    assert np.abs(x2 - solve_spd(matrix, b2).solution).max() <= 1e-12


def test_deterministic_solutions(mesh_chain, dofmaps):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    matrix = FormAssembler(
        mesh_chain[2], dofmaps[2], coeffs, "primary"
    ).total_matrix(0.01)
    b = np.sin(np.arange(dofmaps[2].total))
    x1 = solve_spd(matrix, b).solution
    x2 = solve_spd(matrix, b).solution
    assert np.array_equal(x1, x2)


@pytest.mark.parametrize("variant", ["primary", "alternative"])
def test_symmetric_mode_matches_general_lu(mesh_chain, dofmaps, variant, rng):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    matrix = FormAssembler(
        mesh_chain[3], dofmaps[3], coeffs, variant
    ).total_matrix(0.01)
    handle = FactorHandle(matrix)
    general = spla.splu(matrix.tocsc())
    for b in rng.standard_normal((3, dofmaps[3].total)):
        x = handle.solve(b).solution
        reference = general.solve(b)
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


def test_non_finite_rhs_rejected_before_solving():
    handle = FactorHandle(sp.identity(3, format="csr"))
    handle.lu = None  # any triangular solve or refinement sweep would fail differently
    with pytest.raises(SolverError, match="non-finite right-hand side: 1 of 3"):
        handle.solve(np.array([1.0, np.nan, 0.0]))


def test_indefinite_matrix_detected():
    matrix = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NotSPDError, match="curvature"):
        solve_spd(matrix, np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[1.0, 0.0], [0.0, -1.0]], r"smallest pivot -1\.000e\+00 at index 1"),
        ([[0.0, 1.0], [1.0, 0.0]], "pivoting left the diagonal"),
    ],
)
def test_indefinite_matrix_detected_whatever_the_solution(entries, message):
    """Both solutions of M x = (1, 0.5) have positive curvature x'Mx; the
    pivots still expose the indefinite matrix. The second matrix has a
    positive U diagonal only because its rows were swapped."""
    matrix = sp.csr_matrix(np.array(entries))
    with pytest.raises(NotSPDError, match=message):
        solve_spd(matrix, np.array([1.0, 0.5]))


def test_singular_matrix_raises():
    matrix = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        FactorHandle(matrix).solve(np.array([1.0, 0.0]))


def test_residual_contract_on_reports(mesh_chain, dofmaps, rng):
    coeffs = Coefficients.constant(beta=(1.0, 1.0))
    matrix = FormAssembler(
        mesh_chain[2], dofmaps[2], coeffs, "alternative"
    ).total_matrix(1e-3)
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

    u, _ = backward_euler_run(
        problem.f, partition, m, dm, problem.coeffs, problem.variant, initial=initial
    )

    asm = FormAssembler(m, dm, problem.coeffs, problem.variant)
    matrix = asm.total_matrix(k)
    u_prev = initial
    worst = 0.0
    times = partition.times
    for n in range(1, n_steps + 1):
        rhs = asm.load_vector(k, f=lambda x, y: problem.f(times[n], x, y), w=u_prev)
        sol = FactorHandle(matrix).solve(rhs).solution
        u_prev = sol[: dm.n_u]
        diff = np.abs(u[n] - u_prev).max()
        worst = max(worst, diff / max(np.abs(u_prev).max(), 1e-30))
    assert worst <= 1e-8


def test_extended_residual_row_blocks_change_no_bit(rng, monkeypatch):
    """Blocks of three rows give the whole-array residual bitwise, with
    empty rows on both sides of the block boundary after row 2 and a
    block (rows 6-8) that is empty throughout."""
    dense = rng.standard_normal((11, 11)) * (rng.random((11, 11)) < 0.6)
    dense[[2, 3, 6, 7, 8]] = 0.0
    dense[:, 0] = 1.0
    dense[[2, 3, 6, 7, 8], 0] = 0.0
    matrix = sp.csr_matrix(dense)
    x, b = rng.standard_normal(11), rng.standard_normal(11)
    monkeypatch.setattr(solver, "ROW_BLOCK", 3)
    blocked = extended_residual(matrix, x, b)
    whole = whole_extended_residual(matrix, x, b)
    assert blocked.dtype == whole.dtype == np.longdouble
    assert np.array_equal(blocked, whole)


def test_extended_residual_matches_exact_residual(rng):
    """The long-double residual agrees with the exact rational one to
    long-double roundoff, also on a row where double precision cancels
    to zero; an empty row leaves b."""
    dense = rng.standard_normal((8, 8)) * (rng.random((8, 8)) < 0.5)
    dense[0, :3] = (1.0, 1.0, -1.0)
    dense[0, 3:] = 0.0
    dense[5] = 0.0
    x = rng.standard_normal(8)
    x[:3] = (1.0, 2.0**-60, 1.0)  # row 0 sums to 2**-60 exactly
    b = rng.standard_normal(8)
    b[0] = 0.0
    matrix = sp.csr_matrix(dense)

    result = extended_residual(matrix, x, b)

    assert result.dtype == np.longdouble
    assert (b - matrix @ x)[0] == 0.0  # double precision loses the whole residual
    assert result[0] == -(np.longdouble(2.0) ** -60)
    assert result[5] == b[5]
    eps = np.finfo(np.longdouble).eps
    for i in range(8):
        exact = Fraction(b[i]) - sum(Fraction(a) * Fraction(v) for a, v in zip(dense[i], x))
        scale = abs(b[i]) + np.abs(dense[i] * x).sum()
        # the long double's exact rational value
        error = abs(Fraction(*result[i].as_integer_ratio()) - exact)
        assert error <= 10 * eps * Fraction(scale)


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[-1.0, 3.0], [-3.0, -2.0]], r"not coercive: smallest pivot -5\.500e\+00 at index 0"),
        ([[0.0, 1.0], [-1.0, 0.0]], "not coercive: symmetric-mode pivoting left the diagonal"),
    ],
)
def test_non_coercive_matrix_detected(entries, message):
    """A negative definite symmetric part gives a negative pivot; a zero
    symmetric part (skew matrix) forces pivoting off the diagonal."""
    handle = CoerciveFactorHandle(sp.csr_matrix(np.array(entries)))
    with pytest.raises(NotCoerciveError, match=message):
        handle.certify_pivots()
    assert issubclass(NotCoerciveError, SolverError)


def test_coercive_nonsymmetric_matrix_certified():
    # [[2,1],[-1,2]] has symmetric part 2 I; x = (1,1) gives b = (3,1)
    handle = CoerciveFactorHandle(sp.csr_matrix(np.array([[2.0, 1.0], [-1.0, 2.0]])))
    handle.certify_pivots()
    report = handle.solve(np.array([3.0, 1.0]))
    assert np.allclose(report.solution, [1.0, 1.0], atol=1e-15)
    assert report.iterations == 1  # the extended-precision sweep


def refined_in_double(handle, b, tol):
    """Oracle: the float-only refinement loop of a FactorHandle solve."""
    x = handle.lu.solve(b)
    for sweep in range(solver._MAX_REFINEMENTS + 1):
        residual = b - handle.matrix @ x
        rel = np.linalg.norm(residual) / np.linalg.norm(b)
        if rel <= tol:
            return x, rel, sweep
        x = x + handle.lu.solve(residual)
    raise AssertionError("oracle did not converge")


@pytest.mark.parametrize("tol", [1e-10, 1e-16])
def test_spd_solve_takes_no_extended_sweep(mesh_chain, dofmaps, rng, tol):
    """SPD solves refine in double precision only: bitwise the float loop,
    same sweep count (one at tol 1e-16); the coercive handle adds exactly
    one sweep."""
    matrix = FormAssembler(
        mesh_chain[2], dofmaps[2], Coefficients.constant(beta=(1.0, 1.0)), "primary"
    ).total_matrix(1e-3)
    b = rng.standard_normal(dofmaps[2].total)
    handle = FactorHandle(matrix)
    report = handle.solve(b, tol=tol)
    x, rel, sweeps = refined_in_double(handle, b, tol)
    assert np.array_equal(report.solution, x)
    assert (report.relative_residual, report.iterations) == (rel, sweeps)
    coercive = CoerciveFactorHandle(matrix).solve(b)
    assert coercive.iterations == handle.solve(b).iterations + 1
    assert coercive.relative_residual <= solver.DEFAULT_TOL


def test_failed_extended_sweep_returns_float_solution(monkeypatch):
    """A sweep that breaks the contract is not returned: the solution
    that met it is, with its residual and sweep count."""
    monkeypatch.setattr(
        solver, "extended_residual", lambda matrix, x, b: np.full(len(b), 1.0, np.longdouble)
    )
    handle = CoerciveFactorHandle(sp.identity(2, format="csr"))
    report = handle.solve(np.array([1.0, 1.0]))
    assert np.array_equal(report.solution, [1.0, 1.0])
    assert (report.relative_residual, report.iterations) == (0.0, 0)


def test_extended_sweep_near_roundoff_keeps_float_solution(mesh_chain, dofmaps, rng):
    """At tol 1e-16 one float sweep meets the contract (residual 9.1e-17),
    while the double-precision residual of the swept solution reads
    1.5e-16: the coercive handle returns the float solution, as the SPD
    handle does, instead of raising."""
    matrix = FormAssembler(
        mesh_chain[2], dofmaps[2], Coefficients.constant(beta=(1.0, 1.0)), "primary"
    ).total_matrix(1e-3)
    b = rng.standard_normal(dofmaps[2].total)
    spd = FactorHandle(matrix).solve(b, tol=1e-16)
    coercive = CoerciveFactorHandle(matrix).solve(b, tol=1e-16)
    assert np.array_equal(coercive.solution, spd.solution)
    assert (coercive.relative_residual, coercive.iterations) == (
        spd.relative_residual, spd.iterations
    )
    assert coercive.relative_residual <= 1e-16


def test_handle_keeps_csr_only():
    """Residuals go through the CSR matrix; SuperLU's CSC copy is not kept."""
    handle = FactorHandle(sp.csc_matrix(np.array([[2.0, 1.0], [0.0, 3.0]])))
    assert handle.matrix.format == "csr"
    assert not any(sp.issparse(v) and v.format == "csc" for v in vars(handle).values())
