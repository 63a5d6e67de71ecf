import re

import numpy as np
import pytest

from parafosls.mesh import _connect, refine_uniform, unit_square_initial_mesh

from oracles import PointOutsideDomainError, edge_connectivity, locate_point


def test_initial_mesh_counts():
    m = unit_square_initial_mesh()
    assert m.num_vertices == 5
    assert m.num_triangles == 4
    assert m.num_edges == 8
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    assert m.level == 0


def test_initial_mesh_geometry():
    m = unit_square_initial_mesh()
    assert np.allclose(m.geometry.areas, 0.25)
    assert np.allclose(m.triangle_diameters(), 1.0)
    assert m.mesh_width() == 1.0
    # four boundary corners, interior center
    assert m.boundary_vertex.sum() == 4
    assert not m.boundary_vertex[4]
    assert np.allclose(m.vertices[4], [0.5, 0.5])


@pytest.mark.parametrize("level", [0, 1, 2])
def test_conformity(mesh_chain, level):
    m = mesh_chain[level]
    counts = np.bincount(m.triangle_edges.ravel(), minlength=m.num_edges)
    assert set(counts) <= {1, 2}
    assert np.array_equal(counts == 1, m.boundary_edge)


def test_refinement_counting_formulas(mesh_chain):
    for level, (coarse, fine) in enumerate(zip(mesh_chain[:-1], mesh_chain[1:])):
        assert fine.num_vertices == coarse.num_vertices + coarse.num_edges
        assert fine.num_triangles == 4 * coarse.num_triangles
        assert fine.num_edges == 2 * coarse.num_edges + 3 * coarse.num_triangles
        assert fine.num_vertices - fine.num_edges + fine.num_triangles == 1
        assert fine.num_triangles == 4 * 4 ** (level + 1)
        assert fine.level == level + 1


def test_refinement_halves_diameters(mesh_chain):
    for coarse, fine in zip(mesh_chain[:-1], mesh_chain[1:]):
        assert fine.mesh_width() == 0.5 * coarse.mesh_width()
        # every son has exactly half the parent diameter
        parents = np.repeat(coarse.triangle_diameters(), 4)
        assert np.allclose(fine.triangle_diameters(), 0.5 * parents)


def test_refine_twice_count():
    m = refine_uniform(refine_uniform(unit_square_initial_mesh()))
    assert m.num_triangles == 64


def test_area_sum(mesh_chain):
    for m in mesh_chain:
        assert abs(m.geometry.areas.sum() - 1.0) <= 1e-12
        assert np.all(m.geometry.areas > 0)


def test_edge_orientation_convention(mesh_chain):
    m = mesh_chain[2]
    # edges stored (low, high)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    # sign +1 iff the triangle traverses the edge from low to high index
    for t in range(m.num_triangles):
        tri = m.triangles[t]
        for i in range(3):
            tail, head = tri[(i + 1) % 3], tri[(i + 2) % 3]
            expected = 1 if tail < head else -1
            assert m.triangle_edge_signs[t, i] == expected
            assert tuple(sorted((tail, head))) == tuple(m.edges[m.triangle_edges[t, i]])


def test_interior_edges_have_opposite_signs(mesh_chain):
    m = mesh_chain[3]
    signs = {}
    for t in range(m.num_triangles):
        for i in range(3):
            signs.setdefault(int(m.triangle_edges[t, i]), []).append(
                int(m.triangle_edge_signs[t, i])
            )
    for e, ss in signs.items():
        if len(ss) == 2:
            assert ss[0] == -ss[1]


@pytest.mark.parametrize("level", range(6))
def test_edges_sorted_by_low_high(mesh_chain, level):
    """Edges are strictly increasing in (low, high): that order numbers the sigma-DOFs."""
    m = mesh_chain[level]
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    keys = m.edges[:, 0] * m.num_vertices + m.edges[:, 1]
    assert np.all(np.diff(keys) > 0)


@pytest.mark.parametrize("level", range(5))
def test_connectivity_matches_oracle(mesh_chain, level):
    m = mesh_chain[level]
    edges, triangle_edges, signs = edge_connectivity(m.triangles)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.triangle_edges, triangle_edges)
    assert np.array_equal(m.triangle_edge_signs, signs)


def test_connect_rejects_clockwise_triangle():
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    message = "triangle 0 is not counter-clockwise (area -0.5)"
    with pytest.raises(ValueError, match=re.escape(message)):
        _connect(vertices, [[0, 2, 1]], level=0)


def test_connect_rejects_edge_shared_by_three_triangles():
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, -1.0]]
    triangles = [[0, 1, 2], [0, 1, 3], [1, 0, 4]]  # all counter-clockwise
    message = "mesh is not conforming: edge shared by != 1 or 2 triangles"
    with pytest.raises(ValueError, match=re.escape(message)):
        _connect(vertices, triangles, level=0)


def test_connect_rejects_euler_violation():
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [3.0, 0.0], [2.0, 1.0]]
    triangles = [[0, 1, 2], [3, 4, 5]]  # two disjoint triangles
    with pytest.raises(ValueError, match=re.escape("Euler relation violated: V-E+T = 2")):
        _connect(vertices, triangles, level=0)


def test_locate_point_center_vertex():
    m = unit_square_initial_mesh()
    t, lam = locate_point(m, (0.5, 0.5))
    assert np.isclose(lam.sum(), 1.0)
    # the center is a vertex of every triangle; its barycentric weight is 1
    local = list(m.triangles[t]).index(4)
    assert np.isclose(lam[local], 1.0)


def test_locate_point_bottom_triangle():
    m = unit_square_initial_mesh()
    t, lam = locate_point(m, (0.5, 0.1))
    assert t == 0  # triangle joining the bottom side to the center
    assert np.all(lam >= -1e-12)
    assert np.isclose(lam.sum(), 1.0)


def test_locate_point_centroid():
    m = unit_square_initial_mesh()
    centroid = m.vertices[m.triangles[0]].mean(axis=0)
    t, lam = locate_point(m, centroid)
    assert t == 0
    assert np.allclose(lam, 1.0 / 3.0)


@pytest.mark.parametrize("point", [(-0.1, 0.5), (0.5, 1.2), (2.0, 2.0)])
def test_locate_point_outside(point):
    with pytest.raises(PointOutsideDomainError):
        locate_point(unit_square_initial_mesh(), point)
