import numpy as np
import pytest

from parafosls import solver
from parafosls.analysis import decaying_sine_problem
from parafosls.evolution import (
    TimePartition,
    backward_euler_run,
    check_stability_bound,
    galerkin_be_reference,
    l2_project_initial,
)
from parafosls.forms import Coefficients, assemble_p1_mass
from parafosls.quadrature import triangle_rule
from parafosls.spaces import eval_local_basis

HEAT = Coefficients.constant()


def u0_sine(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def test_partition_validation():
    with pytest.raises(ValueError):
        TimePartition(steps=np.array([0.1, -0.05]))
    with pytest.raises(ValueError):
        TimePartition.from_steps([0.05, 0.04], final_time=0.1)
    part = TimePartition.from_steps([0.04, 0.03, 0.03], final_time=0.1)
    assert not part.constant
    assert np.isclose(part.final_time, 0.1)
    assert TimePartition.uniform(0.1, 4).constant


def test_steps_equal_up_to_roundoff_share_one_factorization(
    mesh_chain, dofmaps, monkeypatch
):
    part = TimePartition(steps=np.diff(np.linspace(0.0, 0.1, 65)))
    assert part.constant
    factorizations = []
    factorize = solver.FactorHandle.__init__

    def counting(handle, matrix):
        factorizations.append(matrix.shape)
        factorize(handle, matrix)

    monkeypatch.setattr(solver.FactorHandle, "__init__", counting)
    m, dm = mesh_chain[1], dofmaps[1]
    backward_euler_run(
        lambda t, x, y: np.ones(np.broadcast(x, y).shape),
        part, m, dm, coeffs=HEAT, variant="primary",
    )
    assert factorizations == [(dm.total, dm.total)]
    galerkin_be_reference(lambda t, x, y: np.ones(np.broadcast(x, y).shape), part, m, dm)
    assert factorizations[1:] == [(dm.n_u, dm.n_u)]


def test_nan_source_fails_fast_with_named_cause(mesh_chain, dofmaps):
    with pytest.raises(solver.SolverError, match="time step 1 failed: non-finite right-hand side"):
        backward_euler_run(
            lambda t, x, y: np.full(np.broadcast(x, y).shape, np.nan),
            TimePartition.uniform(0.1, 2),
            mesh_chain[1],
            dofmaps[1],
            coeffs=HEAT,
            variant="primary",
        )


def test_states_do_not_pin_whole_solutions(mesh_chain, dofmaps):
    """Only the kept states hold flux coefficients: the scalar iterates
    share one block that holds nothing else."""
    states = backward_euler_run(
        lambda t, x, y: np.ones(np.broadcast(x, y).shape),
        TimePartition.uniform(0.1, 3),
        mesh_chain[1],
        dofmaps[1],
        coeffs=HEAT,
        variant="primary",
    )
    block = states[1].u_coeffs.base
    assert block.shape == (3, dofmaps[1].n_u)
    assert all(state.u_coeffs.base is block for state in states[1:])


def test_zero_data_gives_zero_trajectory(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    states = backward_euler_run(
        lambda t, x, y: np.zeros(np.broadcast(x, y).shape),
        TimePartition.uniform(0.1, 4),
        m,
        dm,
        coeffs=HEAT,
        variant="primary",
    )
    assert len(states) == 5
    for s in states:
        assert np.allclose(s.u_coeffs, 0.0)
    assert states[0].sigma_coeffs is None
    assert np.allclose(states[-1].sigma_coeffs, 0.0)


def independent_p1_inner_product(mesh, dofmap, fn, coeffs, degree=10):
    """<fn - u_h, phi_i> for all interior hats, by explicit loops."""
    rule = triangle_rule(degree)
    out = np.zeros(dofmap.n_u)
    areas = mesh.triangle_areas()
    for t in range(mesh.num_triangles):
        p = mesh.vertices[mesh.triangles[t]]
        for lam, w in zip(rule.points, rule.weights):
            xq = lam @ p
            basis = eval_local_basis(mesh, t, lam)
            u_h = 0.0
            for i, v in enumerate(mesh.triangles[t]):
                dof = dofmap.u_dof_of_vertex[v]
                if dof >= 0:
                    u_h += coeffs[dof] * basis.p1_values[i]
            diff = float(fn(np.asarray(xq[0]), np.asarray(xq[1]))) - u_h
            for i, v in enumerate(mesh.triangles[t]):
                dof = dofmap.u_dof_of_vertex[v]
                if dof >= 0:
                    out[dof] += w * 2.0 * areas[t] * diff * basis.p1_values[i]
    return out


def test_initial_projection_orthogonality(mesh_chain, dofmaps):
    m, dm = mesh_chain[2], dofmaps[2]
    coeffs = l2_project_initial(u0_sine, m, dm)
    residuals = independent_p1_inner_product(m, dm, u0_sine, coeffs)
    # quadrature differences (degree 6 vs 10 on a transcendental
    # integrand) dominate the solver tolerance here
    assert np.abs(residuals).max() <= 1e-8


def test_initial_projection_zero():
    from parafosls.mesh import unit_square_initial_mesh
    from parafosls.spaces import build_dof_map

    m = unit_square_initial_mesh()
    dm = build_dof_map(m)
    assert np.allclose(l2_project_initial(lambda x, y: np.zeros_like(x), m, dm), 0.0)


def test_initial_projection_level0_ratio(mesh_chain, dofmaps):
    """One interior hat: the projection is <u0, phi> / <phi, phi>.

    The data integral is evaluated at the projection's own quadrature
    degree so only the assembly and solve paths are under test.
    """
    m, dm = mesh_chain[0], dofmaps[0]
    coeffs = l2_project_initial(u0_sine, m, dm)
    zero = np.zeros(1)
    load = independent_p1_inner_product(m, dm, u0_sine, zero, degree=6)
    mass_diag = -independent_p1_inner_product(
        m, dm, lambda x, y: np.zeros_like(x), np.ones(1), degree=4
    )
    assert np.isclose(coeffs[0], load[0] / mass_diag[0], rtol=1e-12)


@pytest.mark.parametrize("variant", ["primary", "alternative"])
def test_stability_bound_on_benchmark(mesh_chain, dofmaps, variant):
    m, dm = mesh_chain[2], dofmaps[2]
    problem = decaying_sine_problem(variant)
    part = TimePartition.uniform(0.1, 8)
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    states = backward_euler_run(problem, part, m, dm, initial=initial)
    lhs, rhs = check_stability_bound(states, problem.f, part, m, dm)
    assert np.all(lhs <= rhs * (1 + 1e-10))


def test_variable_step_run(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    problem = decaying_sine_problem("primary")
    part = TimePartition.from_steps([0.04, 0.03, 0.03], final_time=0.1)
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    states = backward_euler_run(problem, part, m, dm, initial=initial)
    assert len(states) == 4
    assert np.isclose(states[-1].time, 0.1)
    check_stability_bound(states, problem.f, part, m, dm)


def test_galerkin_single_dof_formula(mesh_chain, dofmaps):
    """Level 0 has one unknown: u1 = (m u0/k + load) / (m/k + K) with
    m = 1/6, K = 4 and load 1/3 for the constant source f = 1."""
    m, dm = mesh_chain[0], dofmaps[0]
    k = 0.1
    u0 = np.array([0.25])
    traj = galerkin_be_reference(
        lambda t, x, y: np.ones(np.broadcast(x, y).shape),
        TimePartition.uniform(k, 1),
        m,
        dm,
        initial=u0,
    )
    mass, stiff, load = 1.0 / 6.0, 4.0, 1.0 / 3.0
    expected = (mass / k * 0.25 + load) / (mass / k + stiff)
    assert np.isclose(traj[-1][0], expected, rtol=1e-12)


def test_galerkin_energy_decay(mesh_chain, dofmaps, rng):
    m, dm = mesh_chain[2], dofmaps[2]
    mass = assemble_p1_mass(m, dm)
    initial = rng.standard_normal(dm.n_u)
    traj = galerkin_be_reference(
        lambda t, x, y: np.zeros(np.broadcast(x, y).shape),
        TimePartition.uniform(0.1, 10),
        m,
        dm,
        initial=initial,
    )
    norms = [np.sqrt(c @ (mass @ c)) for c in traj]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms[:-1], norms[1:]))


def test_decoupled_run_matches_galerkin(mesh_chain, dofmaps):
    m, dm = mesh_chain[2], dofmaps[2]
    part = TimePartition.uniform(0.1, 8)

    def source(t, x, y):
        return (1.0 + 2.0 * t * np.pi**2) * np.sin(np.pi * x) * np.sin(np.pi * y)

    initial = l2_project_initial(u0_sine, m, dm)
    ls = backward_euler_run(
        source, part, m, dm, coeffs=HEAT, variant="primary", initial=initial
    )
    galerkin = galerkin_be_reference(source, part, m, dm, initial=initial)
    for s, g in zip(ls[1:], galerkin[1:]):
        assert np.abs(s.u_coeffs - g).max() <= 1e-8 * np.abs(g).max()


def test_source_evaluated_at_new_time(mesh_chain, dofmaps):
    """One step of size k must see f(k), not f(0)."""
    m, dm = mesh_chain[1], dofmaps[1]
    k = 0.1
    part = TimePartition.uniform(k, 1)

    def time_ramp(t, x, y):
        return np.full(np.broadcast(x, y).shape, t)

    def frozen_at_k(t, x, y):
        return np.full(np.broadcast(x, y).shape, k)

    a = backward_euler_run(time_ramp, part, m, dm, coeffs=HEAT, variant="primary")
    b = backward_euler_run(frozen_at_k, part, m, dm, coeffs=HEAT, variant="primary")
    assert np.array_equal(a[-1].u_coeffs, b[-1].u_coeffs)
    assert np.abs(a[-1].u_coeffs).max() > 0.0


def test_sigma_storage_policy(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    problem = decaying_sine_problem("primary")
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    states = backward_euler_run(
        problem, TimePartition.uniform(0.1, 4), m, dm, initial=initial
    )
    assert states[0].sigma_coeffs is None
    assert all(s.sigma_coeffs is None for s in states[1:-1])
    assert states[-1].sigma_coeffs is not None

    sampled = backward_euler_run(
        problem,
        TimePartition.uniform(0.1, 4),
        m,
        dm,
        initial=initial,
        keep_sigma_every=2,
    )
    assert sampled[2].sigma_coeffs is not None
    assert sampled[1].sigma_coeffs is None
    assert sampled[4].sigma_coeffs is not None


def test_initial_length_validated(mesh_chain, dofmaps):
    with pytest.raises(ValueError, match="length"):
        backward_euler_run(
            lambda t, x, y: np.zeros(np.broadcast(x, y).shape),
            TimePartition.uniform(0.1, 1),
            mesh_chain[1],
            dofmaps[1],
            coeffs=HEAT,
            variant="primary",
            initial=np.zeros(3),
        )
