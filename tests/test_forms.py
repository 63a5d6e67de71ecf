import re

import numpy as np
import pytest

from parafosls.evolution import SystemState, TimePartition, backward_euler_run, l2_project_initial
from parafosls.forms import (
    CoefficientError,
    Coefficients,
    FormAssembler,
    ProblemVariant,
    assemble_nonsymmetric_form,
    assemble_p1_mass,
    assemble_p1_stiffness,
    assemble_rhs,
    assemble_total_form,
    evaluate_lsq_functional,
)

from oracles import dense_rhs, dense_total_matrix

CONVECTION = Coefficients.constant(beta=(1.0, 1.0))
HEAT = Coefficients.constant()


def variable_coefficients():
    """Smooth admissible non-constant coefficients for stress tests."""

    def A(x, y):
        shape = np.broadcast(x, y).shape
        out = np.zeros((2, 2) + shape)
        out[0, 0] = 2.0 + np.sin(x)
        out[1, 1] = 2.0 + np.cos(y)
        out[0, 1] = out[1, 0] = 0.25
        return out

    def beta(x, y):
        return np.stack([np.broadcast_to(y, np.broadcast(x, y).shape),
                         np.broadcast_to(x, np.broadcast(x, y).shape)])

    def div_beta(x, y):
        return np.zeros(np.broadcast(x, y).shape)

    def gamma(x, y):
        return 1.0 + 0.5 * np.broadcast_to(x, np.broadcast(x, y).shape)

    return Coefficients.make(A=A, beta=beta, div_beta=div_beta, gamma=gamma)


@pytest.mark.parametrize("variant", list(ProblemVariant))
@pytest.mark.parametrize("k", [0.1, 1e-3, 1e-6])
def test_total_form_symmetric_and_spd(mesh_chain, dofmaps, variant, k):
    matrix = assemble_total_form(mesh_chain[1], dofmaps[1], CONVECTION, k, variant).toarray()
    assert np.abs(matrix - matrix.T).max() <= 1e-12 * np.abs(matrix).max()
    np.linalg.cholesky(matrix)  # raises if not SPD


@pytest.mark.parametrize("variant", list(ProblemVariant))
def test_total_matrix_matches_dense_oracle(mesh_chain, dofmaps, variant):
    m, dm = mesh_chain[1], dofmaps[1]
    fast = assemble_total_form(m, dm, CONVECTION, 0.05, variant).toarray()
    slow = dense_total_matrix(m, dm, CONVECTION, 0.05, variant)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-13)


def test_total_matrix_variable_coefficients_oracle(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    coeffs = variable_coefficients()
    fast = assemble_total_form(m, dm, coeffs, 0.01, "primary").toarray()
    slow = dense_total_matrix(m, dm, coeffs, 0.01, "primary")
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-13)


def test_decoupled_u_block_is_galerkin_operator(mesh_chain, dofmaps):
    """Zero convection/reaction with unit diffusion: the scalar block is
    (1/k) mass + stiffness and the scalar-flux coupling cancels globally."""
    m, dm = mesh_chain[0], dofmaps[0]
    k = 0.05
    total = assemble_total_form(m, dm, HEAT, k, "primary").toarray()
    n_u = dm.n_u

    # frozen oracle values for the single interior hat function:
    # mass 1/6 from the barycentric integral formula, stiffness 4 from
    # the four gradients of magnitude 2 on triangles of area 1/4
    assert np.isclose(total[0, 0], (1.0 / 6.0) / k + 4.0)

    coupling = total[:n_u, n_u:]
    assert np.abs(coupling).max() <= 1e-12 * np.abs(total).max()

    mass = assemble_p1_mass(m, dm).toarray()
    stiffness = assemble_p1_stiffness(m, dm).toarray()
    assert np.allclose(total[:n_u, :n_u], mass / k + stiffness, rtol=1e-12)


def test_nonsymmetric_form_is_nonsymmetric_with_convection(mesh_chain, dofmaps):
    matrix = assemble_nonsymmetric_form(
        mesh_chain[1], dofmaps[1], CONVECTION, 0.05, "primary"
    ).toarray()
    assert np.abs(matrix - matrix.T).max() > 1e-8


def test_form_decomposition(mesh_chain, dofmaps):
    """total = (1/k) mass + coupling + nonsym, entrywise."""
    m, dm = mesh_chain[1], dofmaps[1]
    for variant in ProblemVariant:
        asm = FormAssembler(m, dm, CONVECTION, 0.02, variant)
        total = asm.total_matrix().toarray()
        parts = (
            asm.scaled_mass_matrix().toarray()
            + asm.coupling_matrix().toarray()
            + asm.nonsymmetric_matrix().toarray()
        )
        assert np.abs(total - parts).max() <= 1e-12 * np.abs(total).max()


def test_nonsymmetric_dominates_half_spatial_form(mesh_chain, dofmaps, rng):
    """b(v, v) >= a(v, v) / 2 for the spatial form a = coupling + b."""
    m, dm = mesh_chain[1], dofmaps[1]
    asm = FormAssembler(m, dm, CONVECTION, 0.05, "primary")
    B = asm.nonsymmetric_matrix()
    A_sp = asm.coupling_matrix() + B
    for _ in range(50):
        v = rng.standard_normal(dm.total)
        bv = float(v @ (B @ v))
        av = float(v @ (A_sp @ v))
        assert bv > 0.0
        assert bv >= 0.5 * av - 1e-12 * abs(av)


def test_nonsymmetric_coercive_in_natural_norm(mesh_chain, dofmaps, rng):
    m, dm = mesh_chain[2], dofmaps[2]
    asm = FormAssembler(m, dm, CONVECTION, 0.01, "primary")
    B = asm.nonsymmetric_matrix()
    G = asm.natural_gram()
    quotients = [
        float(v @ (B @ v)) / float(v @ (G @ v))
        for v in rng.standard_normal((100, dm.total))
    ]
    assert min(quotients) > 0.0


def test_rhs_zero_data(mesh_chain, dofmaps):
    rhs = assemble_rhs(mesh_chain[1], dofmaps[1], CONVECTION, 0.1, None, None, "primary")
    assert np.allclose(rhs, 0.0)


@pytest.mark.parametrize("variant", list(ProblemVariant))
def test_rhs_matches_dense_oracle(mesh_chain, dofmaps, variant, rng):
    m, dm = mesh_chain[0], dofmaps[0]
    w = rng.standard_normal(dm.n_u)

    def f(x, y):
        return np.sin(np.pi * x) * np.cos(y)

    fast = assemble_rhs(m, dm, CONVECTION, 0.25, f, w, variant)
    slow = dense_rhs(m, dm, CONVECTION, 0.25, variant, f=f, w=w)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("variant", list(ProblemVariant))
@pytest.mark.parametrize("w_kind", ["vector", "callable", "none"])
@pytest.mark.parametrize("with_f", [True, False])
def test_load_vector_matches_dense_oracle_level2(
    mesh_chain, dofmaps, variant, w_kind, with_f, rng
):
    m, dm = mesh_chain[2], dofmaps[2]
    w = {
        "vector": rng.standard_normal(dm.n_u),
        "callable": lambda x, y: np.cos(2.0 * x) * y,
        "none": None,
    }[w_kind]

    def f(x, y):
        return np.sin(np.pi * x) * np.cos(y)

    f = f if with_f else None
    asm = FormAssembler(m, dm, variable_coefficients(), 0.03, variant)
    fast = asm.load_vector(f=f, w=w)
    slow = dense_rhs(m, dm, asm.coeffs, 0.03, variant, f=f, w=w)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12 * np.abs(slow).max())


def test_source_of_wrong_shape_named(mesh_chain, dofmaps):
    asm = FormAssembler(mesh_chain[1], dofmaps[1], CONVECTION, 0.1, "primary")
    expected = str(asm.data_tables.x.shape)
    with pytest.raises(ValueError, match=r"source f .*shape \(5,\).*" + re.escape(expected)):
        asm.load_vector(f=lambda x, y: np.zeros(5))


def test_rhs_previous_step_scaling(mesh_chain, dofmaps):
    """With f = 0 the scalar test rows reduce to <w, v>/k for the
    decoupled coefficients."""
    m, dm = mesh_chain[0], dofmaps[0]
    k = 0.125
    w = np.array([0.8])
    rhs = assemble_rhs(m, dm, HEAT, k, None, w, "primary")
    # single interior hat: <w, phi>/k = 0.8 * (1/6) / k
    assert np.isclose(rhs[0], 0.8 / 6.0 / k)


def test_coefficient_condition_violation_names_point(mesh_chain, dofmaps):
    bad = Coefficients.constant(beta=(1.0, 1.0), gamma=-0.5)
    with pytest.raises(CoefficientError, match=r"0.5 div\(beta\) \+ gamma.*\("):
        assemble_total_form(mesh_chain[0], dofmaps[0], bad, 0.1, "primary")


def test_indefinite_diffusion_rejected(mesh_chain, dofmaps):
    bad = Coefficients.make(
        A=lambda x, y: np.broadcast_to(
            np.array([[1.0, 0.0], [0.0, -1.0]])[..., None, None],
            (2, 2) + np.broadcast(x, y).shape,
        ),
        beta=lambda x, y: np.zeros((2,) + np.broadcast(x, y).shape),
        div_beta=lambda x, y: np.zeros(np.broadcast(x, y).shape),
        gamma=lambda x, y: np.zeros(np.broadcast(x, y).shape),
    )
    with pytest.raises(CoefficientError):
        assemble_total_form(mesh_chain[0], dofmaps[0], bad, 0.1, "primary")


def test_lsq_functional_zero_state(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    state = SystemState(np.zeros(dm.n_u), np.zeros(dm.n_sigma), 0.0)
    value = evaluate_lsq_functional(state, m, dm, CONVECTION, 0.1, None, None, "primary")
    assert value == 0.0


def test_lsq_functional_positive_off_zero(mesh_chain, dofmaps, rng):
    m, dm = mesh_chain[1], dofmaps[1]
    for variant in ProblemVariant:
        v = rng.standard_normal(dm.total)
        state = SystemState(v[: dm.n_u], v[dm.n_u :], 0.0)
        assert (
            evaluate_lsq_functional(state, m, dm, CONVECTION, 0.1, None, None, variant)
            > 0.0
        )


@pytest.mark.parametrize("variant", list(ProblemVariant))
def test_solution_minimizes_functional(mesh_chain, dofmaps, variant, rng):
    """The backward Euler step beats 20 random competitors."""
    from parafosls.analysis import decaying_sine_problem

    m, dm = mesh_chain[2], dofmaps[2]
    problem = decaying_sine_problem(variant)
    k = 0.1
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    state = backward_euler_run(
        problem, TimePartition.uniform(k, 1), m, dm, initial=initial
    )[-1]
    g = lambda x, y: problem.f(k, x, y)
    j_best = evaluate_lsq_functional(state, m, dm, problem.coeffs, k, g, initial, variant)
    for _ in range(20):
        v = rng.standard_normal(dm.total)
        competitor = SystemState(v[: dm.n_u], v[dm.n_u :], k)
        j_other = evaluate_lsq_functional(
            competitor, m, dm, problem.coeffs, k, g, initial, variant
        )
        assert j_best <= j_other * (1.0 + 1e-12)


def test_variational_residual_of_solved_step(mesh_chain, dofmaps):
    """The solved coefficients satisfy every test equation to solver accuracy."""
    from parafosls.analysis import decaying_sine_problem
    from parafosls.solver import factorize_reusable

    m, dm = mesh_chain[2], dofmaps[2]
    problem = decaying_sine_problem("primary")
    asm = FormAssembler(m, dm, problem.coeffs, 0.1, "primary")
    matrix = asm.total_matrix()
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    rhs = asm.load_vector(f=lambda x, y: problem.f(0.1, x, y), w=initial)
    solution = factorize_reusable(matrix).solve(rhs).solution
    residual = np.abs(matrix @ solution - rhs).max()
    assert residual <= 1e-10 * max(np.abs(rhs).max(), 1.0)


def test_natural_gram_is_spd(mesh_chain, dofmaps):
    gram = FormAssembler(
        mesh_chain[1], dofmaps[1], CONVECTION, 0.05, "primary"
    ).natural_gram().toarray()
    assert np.allclose(gram, gram.T)
    np.linalg.cholesky(gram)
