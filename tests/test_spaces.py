import numpy as np
import pytest

from parafosls.checks import conformity_jumps
from parafosls.evolution import SystemState
from parafosls.spaces import (
    build_dof_map,
    eval_discrete_function,
    eval_fields_on_triangle,
    eval_local_basis,
)


def test_dof_counts_level0(mesh_chain, dofmaps):
    dm = dofmaps[0]
    assert dm.n_u == 1  # only the center vertex is interior
    assert dm.n_sigma == 8
    assert dm.total == 9


def test_dof_counts_level1(dofmaps):
    dm = dofmaps[1]
    assert dm.n_u == 5
    assert dm.n_sigma == 28
    assert dm.total == 33


def test_dof_indices_are_a_bijection(mesh_chain, dofmaps):
    for m, dm in zip(mesh_chain[:4], dofmaps[:4]):
        used = set(dm.u_dof_of_vertex[dm.u_dof_of_vertex >= 0])
        used |= set(dm.sigma_dof_of_edge)
        assert used == set(range(dm.total))
        assert np.all(dm.u_dof_of_vertex[m.boundary_vertex] == -1)
        assert np.all(dm.u_dof_of_vertex[~m.boundary_vertex] >= 0)


def test_p1_lagrange_property(mesh_chain):
    m = mesh_chain[1]
    for local, lam in enumerate(np.eye(3)):
        basis = eval_local_basis(m, 5, lam)
        assert np.allclose(basis.p1_values, lam)


def test_p1_gradients_sum_to_zero(mesh_chain):
    m = mesh_chain[2]
    basis = eval_local_basis(m, 7, (0.2, 0.5, 0.3))
    assert np.allclose(basis.p1_gradients.sum(axis=0), 0.0)


def test_partition_of_unity(mesh_chain, rng):
    m = mesh_chain[2]
    for _ in range(10):
        lam = rng.dirichlet(np.ones(3))
        basis = eval_local_basis(m, int(rng.integers(m.num_triangles)), lam)
        assert np.isclose(basis.p1_values.sum(), 1.0)


def test_rt0_divergence_theorem(mesh_chain):
    """Integral of div phi_i over the element equals the boundary flux s_i |e_i|."""
    m = mesh_chain[1]
    areas = m.triangle_areas()
    for t in range(m.num_triangles):
        p = m.vertices[m.triangles[t]]
        basis = eval_local_basis(m, t, (1 / 3, 1 / 3, 1 / 3))
        for i in range(3):
            a, b = p[(i + 1) % 3], p[(i + 2) % 3]
            edge_len = np.linalg.norm(b - a)
            sign = m.triangle_edge_signs[t, i]
            assert np.isclose(basis.rt0_divergences[i] * areas[t], sign * edge_len)

            # outward-normal trace along each edge of the triangle
            for j in range(3):
                a_j, b_j = p[(j + 1) % 3], p[(j + 2) % 3]
                direction = (b_j - a_j) / np.linalg.norm(b_j - a_j)
                outward = np.array([direction[1], -direction[0]])
                lam = np.full(3, 0.5)
                lam[j] = 0.0
                at_mid = eval_local_basis(m, t, lam).rt0_values[i]
                trace = at_mid @ outward
                assert np.isclose(trace, sign if i == j else 0.0, atol=1e-13)


def test_normal_trace_constant_along_edge(mesh_chain, rng):
    m = mesh_chain[1]
    t = 3
    p = m.vertices[m.triangles[t]]
    i = 1
    a, b = p[(i + 1) % 3], p[(i + 2) % 3]
    direction = (b - a) / np.linalg.norm(b - a)
    outward = np.array([direction[1], -direction[0]])
    traces = []
    for s in rng.uniform(0.05, 0.95, size=5):
        lam = np.zeros(3)
        lam[(i + 1) % 3] = 1.0 - s
        lam[(i + 2) % 3] = s
        traces.append(eval_local_basis(m, t, lam).rt0_values[i] @ outward)
    assert np.allclose(traces, traces[0])


def test_degenerate_triangle_rejected(mesh_chain):
    import dataclasses

    m = mesh_chain[0]
    flat = dataclasses.replace(
        m, vertices=m.vertices.copy()
    )
    flat.vertices[4] = flat.vertices[0]  # collapse the center onto a corner
    with pytest.raises(ValueError, match="degenerate"):
        eval_local_basis(flat, 3, (1 / 3, 1 / 3, 1 / 3))


def test_eval_discrete_function_zero(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    state = SystemState(np.zeros(dm.n_u), np.zeros(dm.n_sigma), 0.0)
    u, grad, sigma, div = eval_discrete_function(state, m, dm, (0.3, 0.4))
    assert u == 0.0 and div == 0.0
    assert np.allclose(grad, 0.0) and np.allclose(sigma, 0.0)


def test_eval_discrete_function_lagrange(mesh_chain, dofmaps):
    m, dm = mesh_chain[0], dofmaps[0]
    state = SystemState(np.array([0.7]), np.zeros(dm.n_sigma), 0.0)
    u, _, _, _ = eval_discrete_function(state, m, dm, (0.5, 0.5))
    assert np.isclose(u, 0.7)


def test_single_rt0_dof_divergence(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    # pick an interior edge and set its dof to one
    interior_edges = np.flatnonzero(~m.boundary_edge)
    e = int(interior_edges[0])
    sigma = np.zeros(dm.n_sigma)
    sigma[e] = 1.0
    incident = [
        (t, i)
        for t in range(m.num_triangles)
        for i in range(3)
        if m.triangle_edges[t, i] == e
    ]
    assert len(incident) == 2
    edge_len = np.linalg.norm(
        m.vertices[m.edges[e, 1]] - m.vertices[m.edges[e, 0]]
    )
    divs = []
    for t, i in incident:
        _, _, _, div = eval_fields_on_triangle(
            np.zeros(dm.n_u), sigma, m, dm, t, (1 / 3, 1 / 3, 1 / 3)
        )
        area = m.triangle_areas()[t]
        assert np.isclose(abs(div), edge_len / area)
        divs.append(div)
    assert np.isclose(divs[0], -divs[1])  # opposite orientation signs


def test_u_vanishes_at_boundary_vertices(mesh_chain, dofmaps, rng):
    m, dm = mesh_chain[2], dofmaps[2]
    state = SystemState(rng.standard_normal(dm.n_u), None, 0.0)
    for v in np.flatnonzero(m.boundary_vertex)[:6]:
        u, _, _, _ = eval_discrete_function(state, m, dm, m.vertices[v])
        assert abs(u) <= 1e-13


def test_conformity_of_both_spaces(mesh_chain, dofmaps):
    jump_u, jump_flux = conformity_jumps(mesh_chain[2], dofmaps[2], seed=3)
    assert jump_u <= 1e-12
    assert jump_flux <= 1e-12
