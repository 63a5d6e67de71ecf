"""Conforming triangulations of the unit square with uniform refinement.

Meshes are built from a fixed four-triangle macro triangulation of
Omega = (0,1)^2 (four corner vertices plus the center) and refined
uniformly by midpoint quadrisection: every triangle is split into four
sons by connecting its edge midpoints, which halves every element
diameter. Edges carry a global orientation (from the lower to the
higher vertex index) that downstream H(div) elements rely on. Edges are
numbered in increasing (low, high) vertex order; since the sigma-DOFs
follow the edge numbers, that order fixes the flux numbering, every
assembled matrix and the factorization's ordering. Each mesh computes,
once and on first use, the per-element geometry that assembly and
integration read.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

class ElementGeometry(NamedTuple):
    """Per-element quantities shared by assembly and integration.

    verts : (T, 3, 2) vertex coordinates per triangle
    areas : (T,) positive triangle areas
    p1_grads : (T, 3, 2) constant P1 basis gradients
    rt_coef : (T, 3) RT0 factors s_i |e_i| / (2|T|)
    rt_divs : (T, 3) constant RT0 divergences s_i |e_i| / |T|
    """

    verts: np.ndarray
    areas: np.ndarray
    p1_grads: np.ndarray
    rt_coef: np.ndarray
    rt_divs: np.ndarray


def _perp(v):
    """Rotate by +90 degrees: (x, y) -> (-y, x)."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _signed_areas(p):
    """Signed areas of the (T, 3, 2) triangles p, positive for CCW ordering."""
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _edge_lengths(p):
    """(T, 3) lengths of the edges of the triangles p, edge i opposite vertex i."""
    return np.stack(
        [
            np.linalg.norm(p[:, 1] - p[:, 2], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 0], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 1], axis=1),
        ],
        axis=1,
    )


@dataclass(frozen=True)
class Mesh:
    """Conforming triangular mesh.

    Attributes
    ----------
    vertices : (V, 2) float array
        Vertex coordinates.
    triangles : (T, 3) int array
        Vertex indices per triangle, counter-clockwise.
    edges : (E, 2) int array
        Vertex index pairs, stored (low, high) and sorted by (low, high);
        that order fixes the sigma-DOF numbering.
    triangle_edges : (T, 3) int array
        Global edge index opposite each local vertex.
    triangle_edge_signs : (T, 3) int array
        +1 if the triangle's induced direction on that edge runs from
        the lower to the higher vertex index, else -1.
    boundary_vertex : (V,) bool array
    boundary_edge : (E,) bool array
    level : int
        Number of uniform refinements applied to the initial mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    triangle_edges: np.ndarray
    triangle_edge_signs: np.ndarray
    boundary_vertex: np.ndarray
    boundary_edge: np.ndarray
    level: int

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def triangle_diameters(self):
        """Longest edge length of each triangle."""
        return _edge_lengths(self.vertices[self.triangles]).max(axis=1)

    def mesh_width(self):
        """Largest element diameter h."""
        return float(self.triangle_diameters().max())

    @cached_property
    def geometry(self):
        """The ``ElementGeometry`` of the mesh, computed on first use.

        It lives as long as the mesh, and its arrays are read-only,
        since every caller shares them.
        """
        verts = self.vertices[self.triangles]
        areas = _signed_areas(verts)
        p1_grads = np.stack(
            [
                _perp(verts[:, 2] - verts[:, 1]),
                _perp(verts[:, 0] - verts[:, 2]),
                _perp(verts[:, 1] - verts[:, 0]),
            ],
            axis=1,
        ) / (2.0 * areas[:, None, None])
        scale = self.triangle_edge_signs * _edge_lengths(verts)
        rt_coef = scale / (2.0 * areas[:, None])
        rt_divs = scale / areas[:, None]
        geometry = ElementGeometry(verts, areas, p1_grads, rt_coef, rt_divs)
        for array in geometry:
            array.flags.writeable = False
        return geometry


def _connect(vertices, triangles, level):
    """Derive edge connectivity and build a validated Mesh."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)

    areas = _signed_areas(vertices[triangles])
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise ValueError(f"triangle {bad} is not counter-clockwise (area {areas[bad]})")

    # local edge i is opposite local vertex i
    tails = triangles[:, [1, 2, 0]]
    heads = triangles[:, [2, 0, 1]]
    # One int64 key per (low, high) pair: keys sort as the pairs sort
    # lexicographically, so edges come out ordered by (low, high). The key
    # stays below 2**63 for fewer than 3e9 vertices.
    n_v = vertices.shape[0]
    keys = np.minimum(tails, heads) * n_v + np.maximum(tails, heads)
    edge_keys, edge_of_pair = np.unique(keys, return_inverse=True)
    edges = np.stack(np.divmod(edge_keys, n_v), axis=1)
    triangle_edges = edge_of_pair.reshape(-1, 3)
    signs = np.where(tails < heads, 1, -1).astype(np.int64)

    counts = np.bincount(triangle_edges.ravel(), minlength=edges.shape[0])
    if np.any(counts > 2) or np.any(counts < 1):
        raise ValueError("mesh is not conforming: edge shared by != 1 or 2 triangles")
    boundary_edge = counts == 1

    boundary_vertex = np.zeros(vertices.shape[0], dtype=bool)
    boundary_vertex[edges[boundary_edge].ravel()] = True

    n_e, n_t = edges.shape[0], triangles.shape[0]
    if n_v - n_e + n_t != 1:
        raise ValueError(f"Euler relation violated: V-E+T = {n_v - n_e + n_t}")

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        triangle_edges=triangle_edges,
        triangle_edge_signs=signs,
        boundary_vertex=boundary_vertex,
        boundary_edge=boundary_edge,
        level=level,
    )


def unit_square_initial_mesh():
    """Four-triangle triangulation of the unit square.

    Vertices 0..3 are the corners in counter-clockwise order starting
    at the origin; vertex 4 is the center (0.5, 0.5). Each triangle
    joins one side of the square to the center.
    """
    vertices = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    )
    triangles = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return _connect(vertices, triangles, level=0)


def refine_uniform(mesh):
    """Refine every triangle into four sons via its edge midpoints.

    Parent vertices keep their indices; the midpoint of edge ``e`` gets
    index ``V + e``. Son diameters are exactly half the parent's.
    """
    midpoints = 0.5 * (
        mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]]
    )
    vertices = np.vstack([mesh.vertices, midpoints])

    v = mesh.triangles
    m = mesh.num_vertices + mesh.triangle_edges  # midpoint index opposite vertex i
    sons = np.empty((4 * mesh.num_triangles, 3), dtype=np.int64)
    sons[0::4] = np.stack([v[:, 0], m[:, 2], m[:, 1]], axis=1)
    sons[1::4] = np.stack([v[:, 1], m[:, 0], m[:, 2]], axis=1)
    sons[2::4] = np.stack([v[:, 2], m[:, 1], m[:, 0]], axis=1)
    sons[3::4] = m
    return _connect(vertices, sons, level=mesh.level + 1)


def mesh_hierarchy(max_level):
    """Meshes for levels 0..max_level."""
    meshes = [unit_square_initial_mesh()]
    for _ in range(max_level):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes
