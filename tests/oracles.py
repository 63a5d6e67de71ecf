"""Independent slow-path oracles for the tests.

The form oracles but ``einsum_forms`` are written as plain per-element,
per-point Python loops on top of the pointwise basis evaluator,
deliberately avoiding the vectorized table machinery of the package's
assembler, so the two paths only share the quadrature rules and the
basis definition. ``einsum_forms`` pins the summation order instead: it
shares the tables and differs only in the contractions.

``coo_load_operators``, ``whole_mesh_error_norms`` and
``whole_extended_residual`` are the earlier whole-array forms of the
load operators, the error norms and the long-double residual, against
which the package's direct-CSR and blocked versions are checked bitwise.

``edge_connectivity`` numbers the edges of a triangle list from a sorted
Python set, independently of the mesh module. ``locate_point`` and
``eval_discrete_function`` evaluate a discrete pair at a point of the
domain by a brute-force search over the triangles.
"""

import numpy as np
import scipy.sparse as sp

from parafosls import forms
from parafosls.quadrature import triangle_rule
from parafosls.spaces import (
    eval_fields_on_triangle,
    eval_local_basis,
    field_values,
    p1_vertex_values,
    quadrature_points,
    quadrature_weights,
    rt0_edge_values,
    rt0_values,
    scatter_matrix,
    scatter_vector,
)

BARYCENTRIC_TOL = 1e-12


class PointOutsideDomainError(ValueError):
    """Raised when a query point lies outside the meshed domain."""


def edge_connectivity(triangles):
    """(edges, triangle_edges, triangle_edge_signs) of a triangle list.

    Edges are the sorted (low, high) vertex pairs; local edge i is
    opposite local vertex i and has sign +1 if the triangle runs along it
    from the lower to the higher vertex index.
    """
    sides = [
        [(int(tri[(i + 1) % 3]), int(tri[(i + 2) % 3])) for i in range(3)]
        for tri in triangles
    ]
    edges = sorted({(min(a, b), max(a, b)) for local in sides for a, b in local})
    index = {edge: e for e, edge in enumerate(edges)}
    triangle_edges = [[index[min(a, b), max(a, b)] for a, b in local] for local in sides]
    signs = [[1 if a < b else -1 for a, b in local] for local in sides]
    return np.array(edges), np.array(triangle_edges), np.array(signs)


def locate_point(mesh, x, tol=BARYCENTRIC_TOL):
    """Find a triangle containing ``x``.

    Returns
    -------
    (int, (3,) float array)
        Index of the first containing triangle and the barycentric
        coordinates of ``x`` in it.

    Raises
    ------
    PointOutsideDomainError
        If no triangle contains ``x`` within the tolerance.
    """
    x = np.asarray(x, dtype=float)
    p = mesh.vertices[mesh.triangles]  # (T, 3, 2)
    d1 = p[:, 0] - p[:, 2]
    d2 = p[:, 1] - p[:, 2]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    rx = x[0] - p[:, 2, 0]
    ry = x[1] - p[:, 2, 1]
    lam0 = (d2[:, 1] * rx - d2[:, 0] * ry) / det
    lam1 = (-d1[:, 1] * rx + d1[:, 0] * ry) / det
    lam2 = 1.0 - lam0 - lam1
    inside = (lam0 >= -tol) & (lam1 >= -tol) & (lam2 >= -tol)
    hits = np.flatnonzero(inside)
    if hits.size == 0:
        raise PointOutsideDomainError(f"point {tuple(x)} lies outside the mesh")
    t = int(hits[0])
    return t, np.array([lam0[t], lam1[t], lam2[t]])


def eval_discrete_function(u_coeffs, sigma_coeffs, mesh, dofmap, x):
    """Point evaluation of a discrete pair given by coefficient vectors.

    ``sigma_coeffs`` may be None, in which case sigma and div sigma are
    zero.

    Returns (u, grad u, sigma, div sigma) at x; raises if x is outside
    the domain.
    """
    triangle, lam = locate_point(mesh, x)
    return eval_fields_on_triangle(u_coeffs, sigma_coeffs, mesh, dofmap, triangle, lam)


def _pointwise(fn, x, y):
    """Evaluate a vectorized field at one point."""
    return np.asarray(fn(np.asarray(x), np.asarray(y)), dtype=float)


def _local_dofs(mesh, dofmap, t):
    dofs = []
    for v in mesh.triangles[t]:
        dofs.append(int(dofmap.u_dof_of_vertex[v]))
    for e in mesh.triangle_edges[t]:
        dofs.append(int(dofmap.sigma_dof_of_edge[e]))
    return dofs


def _basis_fields(basis):
    """(value, grad, sigma, div) of all six local shape functions."""
    fields = []
    for i in range(3):
        fields.append(
            (basis.p1_values[i], basis.p1_gradients[i], np.zeros(2), 0.0)
        )
    for i in range(3):
        fields.append((0.0, np.zeros(2), basis.rt0_values[i], basis.rt0_divergences[i]))
    return fields


def _residuals(coeffs, variant, x, y, value, grad, sigma, div):
    """Scalar and flux residuals of one field at one point."""
    vals, vecs = np.linalg.eigh(_pointwise(coeffs.A, x, y))
    a_sqrt = (vecs * np.sqrt(vals)) @ vecs.T
    a_inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    beta = _pointwise(coeffs.beta, x, y)
    gamma = float(_pointwise(coeffs.gamma, x, y))
    if getattr(variant, "value", variant) == "primary":
        r = -div - beta @ grad + gamma * value
        d = a_sqrt @ grad - a_inv_sqrt @ sigma
    else:
        r = -div + gamma * value
        d = a_inv_sqrt @ sigma - a_sqrt @ grad + (a_inv_sqrt @ beta) * value
    return r, d


def _dense_form(mesh, dofmap, coeffs, variant, term, degree=4):
    """Dense matrix of a bilinear form by explicit loops.

    ``term(test, trial)`` is the integrand for one pair of local basis
    functions, each given as (value, r, d); row i holds test function i.
    """
    rule = triangle_rule(degree)
    n = dofmap.total
    out = np.zeros((n, n))
    areas = mesh.geometry.areas
    for t in range(mesh.num_triangles):
        dofs = _local_dofs(mesh, dofmap, t)
        p = mesh.vertices[mesh.triangles[t]]
        for lam, w in zip(rule.points, rule.weights):
            xq = lam @ p
            basis = eval_local_basis(mesh, t, lam)
            fields = _basis_fields(basis)
            wq = w * 2.0 * areas[t]
            evals = [
                (f[0], *_residuals(coeffs, variant, xq[0], xq[1], *f))
                for f in fields
            ]
            for i, test in enumerate(evals):
                if dofs[i] < 0:
                    continue
                for j, trial in enumerate(evals):
                    if dofs[j] < 0:
                        continue
                    out[dofs[i], dofs[j]] += wq * term(test, trial)
    return out


def _coupling(test, trial):
    """Integrand of the coupling term <u, r(v)>."""
    return trial[0] * test[1]


def dense_total_matrix(mesh, dofmap, coeffs, k, variant, degree=4):
    """Dense matrix of the time-step form by explicit loops."""

    def term(test, trial):
        (ui, ri, di), (uj, rj, dj) = test, trial
        return ui * uj / k + _coupling(test, trial) + rj * ui + k * rj * ri + dj @ di

    return _dense_form(mesh, dofmap, coeffs, variant, term, degree)


def dense_coupling_matrix(mesh, dofmap, coeffs, variant, degree=4):
    """Dense matrix of the lone coupling term <u, r(v)> by explicit loops."""
    return _dense_form(mesh, dofmap, coeffs, variant, _coupling, degree)


def dense_rhs(mesh, dofmap, coeffs, k, variant, f=None, w=None, degree=6):
    """Dense load vector of <k f + w, v/k + r(v)> by explicit loops."""
    rule = triangle_rule(degree)
    out = np.zeros(dofmap.total)
    areas = mesh.geometry.areas
    for t in range(mesh.num_triangles):
        dofs = _local_dofs(mesh, dofmap, t)
        p = mesh.vertices[mesh.triangles[t]]
        for lam, wgt in zip(rule.points, rule.weights):
            xq = lam @ p
            basis = eval_local_basis(mesh, t, lam)
            fields = _basis_fields(basis)
            wq = wgt * 2.0 * areas[t]
            data = 0.0
            if f is not None:
                data += k * float(_pointwise(f, xq[0], xq[1]))
            if w is not None:
                for i in range(3):
                    if dofs[i] >= 0:
                        data += w[dofs[i]] * basis.p1_values[i]
            for i, fld in enumerate(fields):
                if dofs[i] < 0:
                    continue
                ri, _ = _residuals(coeffs, variant, xq[0], xq[1], *fld)
                out[dofs[i]] += wq * data * (fld[0] / k + ri)
    return out


def einsum_forms(asm, k, fields):
    """The four quadrature forms of an assembler, one np.einsum per term.

    Unlike the loop oracles above, this one reads the package's element
    tables (one whole-mesh block per rule) and scatters through the
    assembler; it differs from the assembler only in the contractions,
    so the two agree bitwise. The natural-norm gram gets a full P1
    gradient table, because einsum sums a broadcast view in another order,
    and holds only its u-u and sigma-sigma blocks, as the assembler's.
    """
    t = forms._RuleTables(asm, triangle_rule(forms.MATRIX_DEGREE), slice(None))
    d = forms._RuleTables(asm, triangle_rule(forms.DATA_DEGREE), slice(None))
    r_ex, g_ex = d.exact_residuals(*fields)
    grads = np.ascontiguousarray(t.grads)
    gram = np.empty((asm.mesh.num_triangles, 2, 3, 3))
    gram[:, 0] = np.einsum("eq,eqix,eqjx->eij", t.wj, grads, grads)
    gram[:, 1] = (
        np.einsum("eq,eqix,eqjx->eij", t.wj, t.rt_vals, t.rt_vals)
        + np.einsum("eq,ei,ej->eij", t.wj * k, t.rt_divs, t.rt_divs)
    )
    total = (
        np.einsum("eq,eqi,eqj->eij", t.wj / k, t.u_tab, t.u_tab)
        + np.einsum("eq,eqi,eqj->eij", t.wj, t.r_tab, t.u_tab)
        + np.einsum("eq,eqi,eqj->eij", t.wj, t.u_tab, t.r_tab)
        + np.einsum("eq,eqi,eqj->eij", t.wj * k, t.r_tab, t.r_tab)
        + np.einsum("eq,eqix,eqjx->eij", t.wj, t.g_tab, t.g_tab)
    )
    nonsymmetric = (
        np.einsum("eq,eqi,eqj->eij", t.wj, t.u_tab, t.r_tab)
        + np.einsum("eq,eqi,eqj->eij", t.wj * k, t.r_tab, t.r_tab)
        + np.einsum("eq,eqix,eqjx->eij", t.wj, t.g_tab, t.g_tab)
    )
    field_load = (
        np.einsum("eq,eq,eqi->ei", d.wj, r_ex, d.u_tab)
        + np.einsum("eq,eq,eqi->ei", d.wj * k, r_ex, d.r_tab)
        + np.einsum("eq,eqx,eqix->ei", d.wj, g_ex, d.g_tab)
    )
    return {
        "total": asm._scatter_matrix(total),
        "nonsymmetric": asm._scatter_matrix(nonsymmetric),
        "gram": asm._scatter_matrix(gram),
        "field load": scatter_vector(field_load, asm.local_dofs, asm.dofmap.total),
    }


def coo_load_operators(asm, k):
    """(to_tests, from_u) of ``FormAssembler._load_operators``, with
    to_tests scattered through COO as ``scatter_matrix`` does."""
    rule = triangle_rule(forms.DATA_DEGREE)
    n_e, n_q = asm.mesh.num_triangles, rule.weights.size
    weighted = np.empty((n_e, n_q, 6))
    for block, t in asm._blocks(rule):
        weighted[block] = t.wj[:, :, None] * (t.u_tab / k + t.r_tab)
    points = np.arange(n_e * n_q).reshape(n_e, n_q)
    to_tests = scatter_matrix(
        weighted,
        asm.local_dofs[:, None, :],
        points[:, :, None],
        (asm.dofmap.total, n_e * n_q),
    )
    from_u = asm._scatter_matrix(np.einsum("eqi,qj->eij", weighted, rule.points))
    return to_tests, from_u


def whole_mesh_error_norms(u, grad_u, sigma, div_sigma, u_coeffs, sigma_coeffs, mesh, dofmap):
    """``analysis.field_error_norms`` with every array over the whole mesh."""
    rule = triangle_rule(forms.DATA_DEGREE)
    geo = mesh.geometry
    wj, pts = quadrature_weights(rule, geo.areas), quadrature_points(rule, geo.verts)
    local_u = p1_vertex_values(u_coeffs, mesh, dofmap, "u_coeffs")
    u_h = np.einsum("qi,ei->eq", rule.points, local_u)
    grad_h = np.einsum("ei,eix->ex", local_u, geo.p1_grads)
    if sigma_coeffs is not None:
        local_s = rt0_edge_values(sigma_coeffs, mesh, dofmap, "sigma_coeffs")
        rt_vals = rt0_values(geo.rt_coef, geo.verts, pts)
        sig_h = np.einsum("ei,eqix->eqx", local_s, rt_vals)
        div_h = np.einsum("ei,ei->e", local_s, geo.rt_divs)
    else:
        sig_h = np.zeros_like(pts)
        div_h = np.zeros(mesh.num_triangles)
    u_ex = field_values(u, pts, "u")
    grad_ex = np.moveaxis(field_values(grad_u, pts, "grad_u", (2,)), 0, -1)
    sig_ex = np.moveaxis(field_values(sigma, pts, "sigma", (2,)), 0, -1)
    div_ex = field_values(div_sigma, pts, "div_sigma")
    grad_diff = grad_ex - grad_h[:, None, :]
    sig_diff = sig_ex - sig_h
    squares = (
        np.sum(wj * (u_ex - u_h) ** 2),
        np.sum(wj * np.einsum("eqx,eqx->eq", grad_diff, grad_diff)),
        np.sum(wj * np.einsum("eqx,eqx->eq", sig_diff, sig_diff)),
        np.sum(wj * (div_ex - div_h[:, None]) ** 2),
    )
    return tuple(float(np.sqrt(square)) for square in squares)


def whole_extended_residual(matrix, x, b):
    """``solver.extended_residual`` with the products of all rows at once."""
    matrix = sp.csr_matrix(matrix)
    x = np.asarray(x, np.longdouble)
    products = matrix.data.astype(np.longdouble) * x[matrix.indices]
    sums = np.zeros(matrix.shape[0], dtype=np.longdouble)
    rows = np.flatnonzero(np.diff(matrix.indptr))
    sums[rows] = np.add.reduceat(products, matrix.indptr[rows])
    return np.asarray(b, np.longdouble) - sums
