"""Lowest-order discrete spaces: continuous P1 with zero trace and RT0.

The scalar variable lives in the space of continuous piecewise-linear
functions vanishing on the boundary (one DOF per interior vertex); the
flux variable lives in the lowest-order Raviart-Thomas space (one DOF
per edge, the constant normal component with respect to the global
edge orientation). Both spaces share one global index range: u-DOFs
first, then sigma-DOFs.

The module also holds the vectorized pieces all assemblers share,
computed from the mesh's element geometry: quadrature weights and
points, RT0 values, the P1_0 vertex and RT0 edge gathers, which check
the length and finiteness of the coefficient vector, and the scatters to
global arrays, which drop the -1 boundary indices. The points and RT0
values have the element axis last, as the element tables that read
them; the weights, the gathers and the scatters are element-first.
``field_values`` is the one place where a caller's (x, y) field is
evaluated: it checks the shape and the finiteness of the result and
names the field when either fails; ``field_table`` calls it at
element-last points.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import _perp


@dataclass(frozen=True)
class DofMap:
    """Global DOF indexing for the product space P1_0 x RT0.

    u_dof_of_vertex : (V,) int array, -1 at boundary vertices
    sigma_dof_of_edge : (E,) int array, values in [n_u, n_u + n_sigma)
    """

    u_dof_of_vertex: np.ndarray
    sigma_dof_of_edge: np.ndarray
    n_u: int
    n_sigma: int

    @property
    def total(self):
        return self.n_u + self.n_sigma


@dataclass(frozen=True)
class LocalBasisEval:
    """All local shape functions of one triangle at one point.

    p1_values : (3,) barycentric coordinates
    p1_gradients : (3, 2) constant P1 gradients
    rt0_values : (3, 2) RT0 basis vectors (edge i opposite vertex i)
    rt0_divergences : (3,) constant RT0 divergences
    """

    p1_values: np.ndarray
    p1_gradients: np.ndarray
    rt0_values: np.ndarray
    rt0_divergences: np.ndarray


def build_dof_map(mesh):
    """Number interior-vertex u-DOFs, then one sigma-DOF per edge."""
    interior = ~mesh.boundary_vertex
    u_dof = np.full(mesh.num_vertices, -1, dtype=np.int64)
    u_dof[interior] = np.arange(interior.sum())
    n_u = int(interior.sum())
    sigma_dof = n_u + np.arange(mesh.num_edges, dtype=np.int64)
    return DofMap(
        u_dof_of_vertex=u_dof,
        sigma_dof_of_edge=sigma_dof,
        n_u=n_u,
        n_sigma=mesh.num_edges,
    )


def quadrature_weights(rule, areas):
    """Physical weights wj = w_q 2|T| of a rule, (T, Q)."""
    return rule.weights[None, :] * (2.0 * areas[:, None])


def quadrature_points(rule, verts):
    """Physical points of a rule on the (T, 3, 2) triangles verts, (Q, 2, T).

    The element axis is last, as in every element table. The points are
    sum_i lambda_qi p_ei added in vertex order, the products and sums of
    the einsum "qi,eix->eqx".
    """
    lam = rule.points[:, :, None, None]
    p = np.moveaxis(verts, 0, -1).copy()  # (3, 2, T), contiguous for the inner loops
    out = lam[:, 0] * p[0]
    out += lam[:, 1] * p[1]
    out += lam[:, 2] * p[2]
    return out


def rt0_values(rt_coef, verts, points):
    """RT0 basis vectors c_i (x - p_i) at per-triangle points, (Q, 3, 2, T).

    rt_coef is (T, 3), verts (T, 3, 2) and points (Q, 2, T), as
    ``quadrature_points`` gives them; the element axis is last.
    """
    out = points[:, None] - np.moveaxis(verts, 0, -1).copy()
    out *= rt_coef.T.copy()[:, None]
    return out


def _element_first(table):
    """A contiguous copy of an element-last table with the element axis first.

    For arrays that are summed whole or raveled in (element, point)
    order, and for einsums, whose summation order depends on the layout.
    """
    return np.ascontiguousarray(np.moveaxis(table, -1, 0))


def field_values(fn, points, name, components=(), error=ValueError):
    """A caller's vectorized field at (..., 2) points, components + points.shape[:-1].

    fn is called once as fn(x, y) on the coordinate arrays, and its
    result is broadcast to the shape above. Raises ``error`` naming the
    field when the result does not broadcast, or when a value is not
    finite; the second message gives the first such point and the
    field's value there.
    """
    x, y = points[..., 0], points[..., 1]
    shape = components + x.shape
    values = np.asarray(fn(x, y), dtype=float)
    try:
        values = np.broadcast_to(values, shape)
    except ValueError:
        raise error(
            f"{name} returned an array of shape {values.shape}; expected "
            f"shape {shape} or one that broadcasts to it"
        ) from None
    finite = np.isfinite(values).reshape(-1, x.size).all(axis=0)
    if not finite.all():
        first = int(np.argmin(finite))
        value = ", ".join(f"{v:.6g}" for v in values.reshape(-1, x.size)[:, first])
        raise error(
            f"{name} is not finite at point "
            f"({x.flat[first]:.6g}, {y.flat[first]:.6g}): value {value}"
        )
    return values


def field_table(fn, points, name, components=(), error=ValueError):
    """``field_values`` at element-last (Q, 2, T) points, components + (Q, T).

    The field is called on the element-first view of the points, so a
    failure names the first bad point in (element, point) order, as for
    element-first points; the values come back as a contiguous
    element-last array.
    """
    values = field_values(fn, np.moveaxis(points, -1, 0), name, components, error)
    return np.ascontiguousarray(np.swapaxes(values, -1, -2))


def _coefficient_vector(coeffs, size, name):
    """coeffs as a float vector; raises ValueError naming it unless it has
    length size and finite entries."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (size,):
        raise ValueError(f"{name} must have length {size}, got shape {coeffs.shape}")
    if not np.isfinite(coeffs).all():
        first = int(np.argmin(np.isfinite(coeffs)))
        raise ValueError(f"{name} is not finite at entry {first}: value {coeffs[first]}")
    return coeffs


def _triangle_u_dofs(mesh, dofmap):
    """(T, 3) u-DOFs of each triangle's vertices, -1 on the boundary.

    Raises ValueError naming dofmap unless it numbers this mesh's
    vertices and edges: the map of another mesh would gather and scatter
    wrong entries without an error.
    """
    u_dof = dofmap.u_dof_of_vertex
    if u_dof.shape != (mesh.num_vertices,) or dofmap.n_sigma != mesh.num_edges:
        raise ValueError(
            f"dofmap does not match the mesh: it numbers {u_dof.size} vertices and "
            f"{dofmap.n_sigma} edges, the mesh has {mesh.num_vertices} and {mesh.num_edges}"
        )
    return u_dof[mesh.triangles]


def p1_vertex_values(u_coeffs, mesh, dofmap, name):
    """(T, 3) vertex values of the P1_0 vector called name, zero on the boundary."""
    u_coeffs = _coefficient_vector(u_coeffs, dofmap.n_u, name)
    padded = np.append(u_coeffs, 0.0)  # index -1 reads the 0
    return padded[_triangle_u_dofs(mesh, dofmap)]


def rt0_edge_values(sigma_coeffs, mesh, dofmap, name):
    """(T, 3) edge values of the RT0 vector called name, edge i opposite vertex i."""
    sigma_coeffs = _coefficient_vector(sigma_coeffs, dofmap.n_sigma, name)
    _triangle_u_dofs(mesh, dofmap)  # raises for the dofmap of another mesh
    return sigma_coeffs[mesh.triangle_edges]


def scatter_matrix(local, rows, cols, shape):
    """Sum element entries into a CSR matrix of the given shape.

    ``rows`` and ``cols`` broadcast to ``local.shape``; entries with a
    negative (boundary) row or column index are dropped.
    """
    rows = np.broadcast_to(rows, local.shape)
    cols = np.broadcast_to(cols, local.shape)
    mask = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((local[mask], (rows[mask], cols[mask])), shape=shape).tocsr()


def scatter_vector(local, dofs, size):
    """Sum element entries into a vector; negative indices are dropped."""
    out = np.zeros(size)
    mask = dofs >= 0
    np.add.at(out, dofs[mask], local[mask])
    return out


def eval_local_basis(mesh, triangle, barycentric):
    """Evaluate P1 and RT0 shape functions on one triangle.

    The RT0 function attached to the edge opposite local vertex i is
    s_i |e_i| / (2|T|) (x - p_i) with divergence s_i |e_i| / |T|, where
    s_i is the global orientation sign. Its normal component is s_i on
    edge e_i and zero on the other two edges.
    """
    lam = np.asarray(barycentric, dtype=float)
    p = mesh.vertices[mesh.triangles[triangle]]
    d1 = p[1] - p[0]
    d2 = p[2] - p[0]
    area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
    if area <= 0.0:
        raise ValueError(f"triangle {triangle} is degenerate (area {area})")

    grads = np.stack(
        [_perp(p[2] - p[1]), _perp(p[0] - p[2]), _perp(p[1] - p[0])]
    ) / (2.0 * area)

    x = lam @ p
    signs = mesh.triangle_edge_signs[triangle]
    edge_len = np.array(
        [
            np.linalg.norm(p[1] - p[2]),
            np.linalg.norm(p[2] - p[0]),
            np.linalg.norm(p[0] - p[1]),
        ]
    )
    scale = signs * edge_len
    rt_vals = scale[:, None] * (x[None, :] - p) / (2.0 * area)
    rt_divs = scale / area

    return LocalBasisEval(
        p1_values=lam,
        p1_gradients=grads,
        rt0_values=rt_vals,
        rt0_divergences=rt_divs,
    )


def eval_fields_on_triangle(u_coeffs, sigma_coeffs, mesh, dofmap, triangle, barycentric):
    """Discrete (u, grad u, sigma, div sigma) at a point of a given triangle.

    Boundary vertices contribute zero to u (homogeneous Dirichlet). The
    coefficient vectors and the (mesh, dofmap) pair are checked as by
    the gathers.
    """
    u_coeffs = _coefficient_vector(u_coeffs, dofmap.n_u, "u_coeffs")
    if sigma_coeffs is not None:
        sigma_coeffs = _coefficient_vector(sigma_coeffs, dofmap.n_sigma, "sigma_coeffs")
    u_dofs = _triangle_u_dofs(mesh, dofmap)[triangle]
    basis = eval_local_basis(mesh, triangle, barycentric)
    u_val = 0.0
    grad = np.zeros(2)
    for i, dof in enumerate(u_dofs):
        if dof >= 0:
            u_val += u_coeffs[dof] * basis.p1_values[i]
            grad += u_coeffs[dof] * basis.p1_gradients[i]
    sigma = np.zeros(2)
    div = 0.0
    if sigma_coeffs is not None:
        for i, e in enumerate(mesh.triangle_edges[triangle]):
            sigma += sigma_coeffs[e] * basis.rt0_values[i]
            div += sigma_coeffs[e] * basis.rt0_divergences[i]
    return u_val, grad, sigma, div
