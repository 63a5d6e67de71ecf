"""Independent slow-path oracles for the tests.

The dense form oracles are written as plain per-element, per-point
Python loops on top of the pointwise basis evaluator, deliberately
avoiding the vectorized table machinery of the package's assembler, so
the two paths only share the quadrature rules and the basis definition.
``einsum_forms`` pins the summation order instead: it reads the
package's tables, in element-first copies, and differs only in the
contractions.

``ElementFirstTables`` and ``element_first_forms`` are the element-first
(nE, nQ, slot[, 2]) tables and kernels the package used before its
tables went element-last, kept so that every form can be checked
bitwise against them. ``coo_load_operators``, ``whole_mesh_error_norms``
and ``whole_extended_residual`` are the earlier whole-array forms of the
load operators, the error norms and the long-double residual, built on
the element-first tables, against which the package's direct-CSR and
blocked versions are checked bitwise.

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
    _element_first,
    eval_fields_on_triangle,
    eval_local_basis,
    field_values,
    p1_vertex_values,
    quadrature_weights,
    rt0_edge_values,
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
    tables (one whole-mesh block per rule), in element-first contiguous
    copies, since einsum's summation order depends on the layout; it
    differs from the assembler only in the contractions, so the two
    agree bitwise. The natural-norm gram gets a full P1 gradient table,
    because einsum sums a broadcast view in another order, and holds
    only its u-u and sigma-sigma blocks, as the assembler's.
    """
    t = forms._RuleTables(asm, triangle_rule(forms.MATRIX_DEGREE), slice(None))
    d = forms._RuleTables(asm, triangle_rule(forms.DATA_DEGREE), slice(None))
    wj, u_tab, r_tab, g_tab, grads, rt_vals, rt_divs = map(
        _element_first, (t.wj, t.u_tab, t.r_tab, t.g_tab, t.grads, t.rt_vals, t.rt_divs)
    )
    d_wj, d_u, d_r, d_g = map(_element_first, (d.wj, d.u_tab, d.r_tab, d.g_tab))
    r_ex, g_ex = map(_element_first, d.exact_residuals(*fields))
    gram = np.empty((asm.mesh.num_triangles, 2, 3, 3))
    gram[:, 0] = np.einsum("eq,eqix,eqjx->eij", wj, grads, grads)
    gram[:, 1] = (
        np.einsum("eq,eqix,eqjx->eij", wj, rt_vals, rt_vals)
        + np.einsum("eq,ei,ej->eij", wj * k, rt_divs, rt_divs)
    )
    total = (
        np.einsum("eq,eqi,eqj->eij", wj / k, u_tab, u_tab)
        + np.einsum("eq,eqi,eqj->eij", wj, r_tab, u_tab)
        + np.einsum("eq,eqi,eqj->eij", wj, u_tab, r_tab)
        + np.einsum("eq,eqi,eqj->eij", wj * k, r_tab, r_tab)
        + np.einsum("eq,eqix,eqjx->eij", wj, g_tab, g_tab)
    )
    nonsymmetric = (
        np.einsum("eq,eqi,eqj->eij", wj, u_tab, r_tab)
        + np.einsum("eq,eqi,eqj->eij", wj * k, r_tab, r_tab)
        + np.einsum("eq,eqix,eqjx->eij", wj, g_tab, g_tab)
    )
    field_load = (
        np.einsum("eq,eq,eqi->ei", d_wj, r_ex, d_u)
        + np.einsum("eq,eq,eqi->ei", d_wj * k, r_ex, d_r)
        + np.einsum("eq,eqx,eqix->ei", d_wj, g_ex, d_g)
    )
    return {
        "total": _scatter_element_first(asm, total),
        "nonsymmetric": _scatter_element_first(asm, nonsymmetric),
        "gram": _scatter_element_first(asm, gram),
        "field load": scatter_vector(field_load, asm.local_dofs, asm.dofmap.total),
    }


def _scatter_element_first(asm, local):
    """``FormAssembler._scatter_matrix`` of element-first (nE, 6, m) or
    (nE, 2, 3, 3) element matrices."""
    n = asm.dofmap.total
    ld = asm.local_dofs
    if local.ndim == 4:
        ld = ld.reshape(-1, 2, 3)
        return scatter_matrix(local, ld[..., None], ld[..., None, :], (n, n))
    n_cols = n if local.shape[2] == 6 else asm.dofmap.n_u
    return scatter_matrix(local, ld[:, :, None], ld[:, None, : local.shape[2]], (n, n_cols))


# The element-first tables and kernels that the package used before its
# element tables went element-last: (nE, nQ, slot[, 2]) tables, copied
# element-last inside each kernel. Every form is checked bitwise against
# them (``element_first_forms``, ``coo_load_operators`` and
# ``whole_mesh_error_norms``).


def element_first_points(rule, verts):
    """Physical points of a rule on every triangle, (T, Q, 2)."""
    lam = rule.points
    out = np.empty((verts.shape[0], lam.shape[0], 2))
    for x in range(2):
        p = verts[:, None, :, x]
        np.multiply(lam[:, 0], p[..., 0], out=out[..., x])
        out[..., x] += lam[:, 1] * p[..., 1]
        out[..., x] += lam[:, 2] * p[..., 2]
    return out


def element_first_rt0_values(rt_coef, verts, points):
    """RT0 basis vectors c_i (x - p_i) at per-triangle points, (T, Q, 3, 2)."""
    out = np.empty(points.shape[:2] + (3, 2))
    for x in range(2):
        np.subtract(points[:, :, None, x], verts[:, None, :, x], out=out[..., x])
        out[..., x] *= rt_coef[:, None, :]
    return out


def _stacked_spd_roots(values):
    """(A^{1/2}, A^{-1/2}) of an admissible (2, 2) + shape field, stacked."""
    (a, b), (c, d) = values
    s = np.sqrt(a * d - b * c)
    t = np.sqrt(a + d + 2.0 * s)
    ts = t * s
    root = np.stack([[(a + s) / t, b / t], [c / t, (d + s) / t]])
    inv_root = np.stack([[(d + s) / ts, -b / ts], [-c / ts, (a + s) / ts]])
    return root, inv_root


def _element_first_matvec(m, v):
    """The einsum "eqxy,eqiy->eqix", written out."""
    m = m[:, :, None]
    out = np.empty(np.broadcast_shapes(m.shape[:3], v.shape[:3]) + (2,))
    for x in range(2):
        np.multiply(m[..., x, 0], v[..., 0], out=out[..., x])
        out[..., x] += m[..., x, 1] * v[..., 1]
    return out


def _copy_element_last(a):
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _element_first_quad_matrix(w, a, b, slots=None):
    """The einsum "eq,eqi,eqj->eij" (or "eq,eqix,eqjx->eij") on
    element-last copies of the element-first operands, as (nE,) + slots."""
    same = b is a
    w, a = _copy_element_last(w), _copy_element_last(a)
    b = a if same else _copy_element_last(b)
    n, m, n_e = a.shape[1], b.shape[1], a.shape[-1]
    out = np.zeros((slots or (n, m)) + (n_e,))
    acc = out[:n, :m]
    wa = np.empty(a.shape[1:])
    prod = np.empty((n, m, n_e))
    second = np.empty_like(prod)
    for q in range(a.shape[0]):
        np.multiply(w[q], a[q], out=wa)
        if a.ndim == 3:
            np.multiply(wa[:, None], b[q], out=prod)
        else:
            np.multiply(wa[:, None, 0], b[q, :, 0], out=prod)
            np.multiply(wa[:, None, 1], b[q, :, 1], out=second)
            prod += second
        acc += prod
    return np.moveaxis(out, -1, 0)


def _element_first_quad_vector(w, c, a, slots=None):
    return _element_first_quad_matrix(w, c[:, :, None], a, slots and (1, slots))[:, 0]


class ElementFirstTables:
    """The element-first (nE, nQ, slot[, 2]) tables of one rule on the whole mesh."""

    def __init__(self, asm, rule):
        lam = rule.points
        geo = asm.mesh.geometry
        coeffs = asm.coeffs
        self.variant = asm.variant
        self.wj = quadrature_weights(rule, geo.areas)
        self.pts = element_first_points(rule, geo.verts)
        n_e, n_q = self.wj.shape
        self.beta = np.moveaxis(self._field(coeffs.beta, (2,)), 0, -1)
        self.gamma = self._field(coeffs.gamma)
        self.a_roots = tuple(
            np.moveaxis(root, (0, 1), (-2, -1))
            for root in _stacked_spd_roots(self._field(coeffs.A, (2, 2)))
        )
        self.rt_vals = element_first_rt0_values(geo.rt_coef, geo.verts, self.pts)
        self.rt_divs = geo.rt_divs
        self.grads = np.broadcast_to(geo.p1_grads[:, None], (n_e, n_q, 3, 2))
        self.u_tab = np.zeros((n_e, n_q, 6))
        self.u_tab[:, :, :3] = lam[None, :, :]
        self.u_p1 = self.u_tab[:, :, :3]
        self.r_tab = np.empty((n_e, n_q, 6))
        self.r_tab[:, :, :3] = self.scalar_residual(u=lam, grad=self.grads)
        self.r_tab[:, :, 3:] = self.scalar_residual(div=self.rt_divs[:, None, :])
        self.g_tab = np.empty(self.u_tab.shape + (2,))
        self.g_tab[:, :, :3] = self.flux_residual(u=lam, grad=self.grads)
        self.g_tab[:, :, 3:] = self.flux_residual(sigma=self.rt_vals)

    def _field(self, fn, components=()):
        return field_values(fn, self.pts, "field", components)

    def scalar_residual(self, u=None, grad=None, div=None):
        gamma_u = None if u is None else self.gamma[:, :, None] * u
        if self.variant is forms.ProblemVariant.PRIMARY:
            beta_grad = (
                None if grad is None else np.einsum("eqx,eqix->eqi", self.beta, grad)
            )
            return forms._signed_sum([(-1, div), (-1, beta_grad), (1, gamma_u)])
        return forms._signed_sum([(-1, div), (1, gamma_u)])

    def flux_residual(self, u=None, grad=None, sigma=None):
        a_sqrt, a_inv_sqrt = self.a_roots
        a_grad = None if grad is None else _element_first_matvec(a_sqrt, grad)
        a_sig = None if sigma is None else _element_first_matvec(a_inv_sqrt, sigma)
        if self.variant is forms.ProblemVariant.PRIMARY:
            return forms._signed_sum([(1, a_grad), (-1, a_sig)])
        beta_u = None
        if u is not None:
            a_beta = np.einsum("eqxy,eqy->eqx", a_inv_sqrt, self.beta)
            beta_u = a_beta[:, :, None, :] * u[..., None]
        return forms._signed_sum([(1, a_sig), (-1, a_grad), (1, beta_u)])

    def exact_residuals(self, u, grad_u, sigma, div_sigma):
        u_vals = field_values(u, self.pts, "u")[..., None]
        grad = np.moveaxis(field_values(grad_u, self.pts, "grad_u", (2,)), 0, -1)
        div = field_values(div_sigma, self.pts, "div_sigma")[..., None]
        sig = np.moveaxis(field_values(sigma, self.pts, "sigma", (2,)), 0, -1)
        r = self.scalar_residual(u=u_vals, grad=grad[:, :, None], div=div)
        d = self.flux_residual(u=u_vals, grad=grad[:, :, None], sigma=sig[:, :, None])
        return r[..., 0], d[:, :, 0]


def element_first_forms(asm, k, fields, u, sigma, g=None, w=None):
    """Every form of ``FormAssembler`` at step k from the element-first
    tables and kernels: the four matrices, the field load of the exact
    fields and the (nE, nQ) functional terms at (u, sigma; g, w)."""
    quad, vec = _element_first_quad_matrix, _element_first_quad_vector
    t = ElementFirstTables(asm, triangle_rule(forms.MATRIX_DEGREE))
    d = ElementFirstTables(asm, triangle_rule(forms.DATA_DEGREE))
    total = (
        quad(t.wj / k, t.u_p1, t.u_p1, (6, 6))
        + quad(t.wj, t.r_tab, t.u_p1, (6, 6))
        + quad(t.wj, t.u_p1, t.r_tab, (6, 6))
        + quad(t.wj * k, t.r_tab, t.r_tab)
        + quad(t.wj, t.g_tab, t.g_tab)
    )
    nonsymmetric = (
        quad(t.wj, t.u_p1, t.r_tab, (6, 6))
        + quad(t.wj * k, t.r_tab, t.r_tab)
        + quad(t.wj, t.g_tab, t.g_tab)
    )
    gram = np.empty((asm.mesh.num_triangles, 2, 3, 3))
    gram[:, 0] = quad(t.wj, t.grads, t.grads)
    gram[:, 1] = quad(t.wj, t.rt_vals, t.rt_vals) + np.einsum(
        "eq,ei,ej->eij", t.wj * k, t.rt_divs, t.rt_divs
    )
    r_ex, g_ex = d.exact_residuals(*fields)
    field_load = (
        vec(d.wj, r_ex, d.u_p1, 6) + vec(d.wj * k, r_ex, d.r_tab) + vec(d.wj, g_ex, d.g_tab)
    )

    mesh, dofmap, rule = asm.mesh, asm.dofmap, triangle_rule(forms.DATA_DEGREE)
    local = np.zeros((mesh.num_triangles, 6))
    local[:, :3] = p1_vertex_values(u, mesh, dofmap, "u")
    if sigma is not None:
        local[:, 3:] = rt0_edge_values(sigma, mesh, dofmap, "sigma")
    w_local = p1_vertex_values(np.zeros(dofmap.n_u) if w is None else w, mesh, dofmap, "w")
    w_vals = np.einsum("qi,ei->eq", rule.points, w_local)
    data = np.zeros_like(w_vals) if g is None else field_values(g, d.pts, "g")
    u_vals = np.einsum("eqi,ei->eq", d.u_tab, local)
    r_vals = np.einsum("eqi,ei->eq", d.r_tab, local)
    g_vals = np.einsum("eqix,ei->eqx", d.g_tab, local)
    scalar_res = (u_vals - w_vals) / k + r_vals - data
    lsq_terms = d.wj * (k * scalar_res**2 + np.einsum("eqx,eqx->eq", g_vals, g_vals))
    return {
        "total": _scatter_element_first(asm, total),
        "nonsymmetric": _scatter_element_first(asm, nonsymmetric),
        "gram": _scatter_element_first(asm, gram),
        "field load": scatter_vector(field_load, asm.local_dofs, asm.dofmap.total),
        "lsq terms": lsq_terms,
    }


def coo_load_operators(asm, k):
    """(to_tests, from_u) of ``FormAssembler._load_operators`` from the
    element-first tables, with to_tests scattered through COO as
    ``scatter_matrix`` does."""
    rule = triangle_rule(forms.DATA_DEGREE)
    t = ElementFirstTables(asm, rule)
    n_e, n_q = t.wj.shape
    weighted = t.wj[:, :, None] * (t.u_tab / k + t.r_tab)
    points = np.arange(n_e * n_q).reshape(n_e, n_q)
    to_tests = scatter_matrix(
        weighted,
        asm.local_dofs[:, None, :],
        points[:, :, None],
        (asm.dofmap.total, n_e * n_q),
    )
    from_u = _scatter_element_first(asm, np.einsum("eqi,qj->eij", weighted, rule.points))
    return to_tests, from_u


def whole_mesh_error_norms(u, grad_u, sigma, div_sigma, u_coeffs, sigma_coeffs, mesh, dofmap):
    """``analysis.field_error_norms`` with every array element-first over the whole mesh."""
    rule = triangle_rule(forms.DATA_DEGREE)
    geo = mesh.geometry
    wj, pts = quadrature_weights(rule, geo.areas), element_first_points(rule, geo.verts)
    local_u = p1_vertex_values(u_coeffs, mesh, dofmap, "u_coeffs")
    u_h = np.einsum("qi,ei->eq", rule.points, local_u)
    grad_h = np.einsum("ei,eix->ex", local_u, geo.p1_grads)
    if sigma_coeffs is not None:
        local_s = rt0_edge_values(sigma_coeffs, mesh, dofmap, "sigma_coeffs")
        rt_vals = element_first_rt0_values(geo.rt_coef, geo.verts, pts)
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
