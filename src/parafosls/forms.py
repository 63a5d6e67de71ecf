"""Assembly of the time-discrete least-squares forms on P1_0 x RT0.

The scheme minimizes, per time step of size k, the functional

    J(u, sigma; g, w) = k ||(u - w)/k + r(u, sigma) - g||^2 + ||d(u, sigma)||^2

over the discrete product space, where r is the scalar first-order
residual and d the flux-mismatch residual of the chosen first-order
splitting:

    primary:      r = -div sigma - beta.grad u + gamma u
                  d = A^{1/2} grad u - A^{-1/2} sigma
    alternative:  r = -div sigma + gamma u
                  d = A^{-1/2} sigma - A^{1/2} grad u + A^{-1/2} beta u

The induced total bilinear form is

    total(u, v) = (1/k)<u, v> + <u, r(v)> + <r(u), v> + k<r(u), r(v)>
                  + <d(u), d(v)>,

its non-symmetric spatial part (used by the elliptic projection) is

    nonsym(u, v) = <r(u), v> + k <r(u), r(v)> + <d(u), d(v)>,

and the load functional is  F(v; f, w) = <k f + w, v/k + r(v)>.

Every term is integrated as written, with no integration by parts, so
algebraic identities between the forms hold only up to quadrature and
roundoff and can be tested as such.

All coefficient and data callables are vectorized over coordinate
arrays: scalar fields map (x, y) to an array of the same shape, vector
fields prepend an axis of length 2, matrix fields prepend (2, 2). Each
is evaluated through ``spaces.field_values`` (at element-last points
through ``spaces.field_table``), which names the field when its result
has the wrong shape or a value that is not finite.

The element tables (basis values, residuals r and d of the basis
functions, weights) are built for one block of ``BLOCK_ELEMENTS``
elements at a time inside each form call, and none is kept between
calls. Every element term is computed from its own element's table
entries, so the block size changes no bit of any assembled array. The
quadrature sums of the matrices and of the field load run through two
written-out kernels that do np.einsum's products and sums in einsum's
order, so each form is bitwise what its einsum expression gives.

Every table is built with its element axis last, (nQ, slot[, 2], nB),
so each operation's inner loop spans the block's elements and the
kernels read the tables as they are; the element matrices are written
element-last too and scattered in (element, row, column) order. Only
elementwise arithmetic and sums in a fixed order see the layout, so it
changes no bit of any form. What is summed whole or raveled stays
element-first, because np.sum adds pairwise in memory order and
einsum's order can depend on the layout: the (nE, nQ) integrands of
the functional (and of ``analysis.field_error_norms``), the einsum
contractions that build the former, and the data points, whose raveled
values meet the e nQ + q columns of ``to_tests``.

What an assembler keeps between calls is the load pair of its last
step, about 18 MB at level 6. Its ``to_tests`` is the CSC form of the
element-ordered weighted test table: column e nQ + q holds data point q
of element e, one entry per slot with a DOF. A CSC product adds into
each row in ascending column order, the (e, q) order of the rows of
the CSR matrix a COO scatter gives, so its products are theirs bit for
bit (see ``FormAssembler._load_operators``).
"""

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .quadrature import triangle_rule
from .spaces import (
    _coefficient_vector,
    _element_first,
    _triangle_u_dofs,
    field_table,
    field_values,
    p1_vertex_values,
    quadrature_points,
    quadrature_weights,
    rt0_edge_values,
    rt0_values,
    scatter_matrix,
    scatter_vector,
)

MATRIX_DEGREE, DATA_DEGREE = 4, 6  # quadrature exactness: matrix terms, data terms
BLOCK_ELEMENTS = 1024  # elements per block of element tables


class CoefficientError(ValueError):
    """A PDE coefficient violates its admissibility condition."""


class ProblemVariant(enum.Enum):
    """First-order splitting: flux with or without the convective part."""

    PRIMARY = "primary"
    ALTERNATIVE = "alternative"


def _constant_field(value):
    """The field of a constant scalar, vector or matrix: value.shape + the points' shape."""
    value = np.asarray(value, dtype=float)

    def fn(x, y):
        shape = np.broadcast(x, y).shape
        return value.reshape(value.shape + (1,) * len(shape)) * np.ones(shape)

    return fn


def _spd_roots(values, where):
    """(A^{1/2}, A^{-1/2}) of a field of 2x2 matrices, each (2, 2) + shape.

    Raises ``CoefficientError`` naming ``where(i)`` unless A is symmetric
    (|A01 - A10| <= 1e-12 max|A|) and positive definite at every point.
    i is the flat index of the worst point in the field's transposed
    point axes: for an element-last (nQ, nB) field, the first worst point
    in (element, point) order. The roots are in closed form
    (Cayley-Hamilton): with s = sqrt(det A) and t = sqrt(tr A + 2s),
    A^{1/2} = (A + sI)/t and A^{-1/2} = adj(A + sI)/(t s). A = I gives
    exactly I.
    """
    (a, b), (c, d) = values
    asym = np.abs(b - c)
    tol = 1e-12 * np.abs(values).max(axis=(0, 1))
    if np.any(asym > tol):
        worst = int(np.argmax((asym - tol).T))
        raise CoefficientError(
            f"diffusion matrix not symmetric at point {where(worst)}: "
            f"|A01 - A10| = {asym.T.flat[worst]:.6g}"
        )
    det = a * d - b * c
    lambda_min = 0.5 * (a + d) - np.hypot(0.5 * (a - d), b)
    # near cond(A) = 1/eps a positive lambda_min can round to det <= 0
    bad = (lambda_min <= 0.0) | (det <= 0.0)
    if np.any(bad):
        worst = int(np.argmin(np.where(bad, lambda_min, np.inf).T))
        raise CoefficientError(
            f"diffusion matrix not positive definite at point {where(worst)}: "
            f"lambda_min = {lambda_min.T.flat[worst]:.6g}"
        )
    s = np.sqrt(det)
    t = np.sqrt(a + d + 2.0 * s)
    ts = t * s
    a_s, d_s = a + s, d + s
    return np.divide([[a_s, b], [c, d_s]], t), np.divide([[d_s, -b], [-c, a_s]], ts)


@dataclass(frozen=True)
class Coefficients:
    """Elliptic coefficients A (diffusion), beta (convection), gamma (reaction).

    ``div_beta`` is the analytic divergence of beta, supplied by the
    caller (it enters the admissibility check 0.5 div beta + gamma >= 0
    and must not be approximated numerically). A must be symmetric
    positive definite at every point; the forms take its roots
    A^{1/2}, A^{-1/2} pointwise in closed form for 2x2 matrices.
    """

    A: Callable
    beta: Callable
    div_beta: Callable
    gamma: Callable

    @classmethod
    def constant(cls, A=((1.0, 0.0), (0.0, 1.0)), beta=(0.0, 0.0), gamma=0.0):
        """Constant coefficients; div beta is zero."""
        return cls(
            A=_constant_field(A),
            beta=_constant_field(beta),
            div_beta=_constant_field(0.0),
            gamma=_constant_field(gamma),
        )


def element_blocks(n_e):
    """Slices of consecutive blocks of BLOCK_ELEMENTS of n_e elements, the last one the rest."""
    for start in range(0, n_e, BLOCK_ELEMENTS):
        yield slice(start, min(start + BLOCK_ELEMENTS, n_e))


def _step(k):
    """The step k as a float; raises unless it is positive and finite."""
    k = float(k)
    if not (np.isfinite(k) and k > 0.0):
        raise ValueError(f"time step k must be positive and finite, got {k}")
    return k


def _contract(m, v):
    """sum_y m[y] v[y] over the leading axes, broadcasting the rest.

    The sum starts from zero and adds the products in order, which is
    how np.einsum sums the short contractions this replaces (beta.grad u,
    A^{-1/2} beta, the flux of a discrete pair), so the results are
    bitwise theirs, signed zeros included.
    """
    out = np.zeros(np.broadcast_shapes(m.shape[1:], v.shape[1:]))
    for m_y, v_y in zip(m, v):
        out += m_y * v_y
    return out


def _slot_matvec(m, v):
    """A (2, 2, nQ, nB) matrix field applied to the (nQ, n, 2, nB) vectors of n slots.

    Per flux component out_x = m_x0 v_0 + m_x1 v_1, the products and
    sums of the einsum "eqxy,eqiy->eqix" on the element-first tables.
    """
    m = m[:, :, :, None]
    out = np.empty(v.shape)
    for x in range(2):  # no temporary for the sum
        np.multiply(m[x, 0], v[:, :, 0], out=out[:, :, x])
        out[:, :, x] += m[x, 1] * v[:, :, 1]
    return out


def _quad_matrix(w, a, b, slots=None):
    """sum_q w_q a_qi . b_qj of element-last tables, element axis last.

    w is (nQ, nB), a (nQ, n[, 2], nB) and b (nQ, m[, 2], nB); a table
    may broadcast over the points or the elements. The result is
    (n, m, nB), or slots + (nB,) with the first n rows and m columns
    filled and the rest exactly zero. It is bitwise the einsum
    "eq,eqi,eqj->eij" (or "eq,eqix,eqjx->eij" with the flux axis) of the
    element-first tables: per point the products (w a_i) b_j, the two
    flux components added first, and the points accumulated in order
    from zero. Every operation's inner loop spans the block's elements.
    """
    n, m, n_e = a.shape[1], b.shape[1], w.shape[-1]
    out = np.zeros((slots or (n, m)) + (n_e,))
    acc = out[:n, :m]
    wa = np.empty(a.shape[1:-1] + (n_e,))
    prod = np.empty((n, m, n_e))
    second = np.empty_like(prod)
    for q in range(w.shape[0]):
        np.multiply(w[q], a[q], out=wa)
        if a.ndim == 3:
            np.multiply(wa[:, None], b[q], out=prod)
        else:
            np.multiply(wa[:, None, 0], b[q, :, 0], out=prod)
            np.multiply(wa[:, None, 1], b[q, :, 1], out=second)
            prod += second
        acc += prod
    return out


def _quad_vector(w, c, a, slots=None):
    """sum_q w_q c_q . a_qi: ``_quad_matrix`` with c as a table of one slot.

    w is (nQ, nB), c (nQ[, 2], nB) and a (nQ, n[, 2], nB). The result
    is (n, nB), or (slots, nB) with the first n filled and the rest
    exactly zero; the products are (w c) a_i, bitwise the einsum
    "eq,eq,eqi->ei" (or "eq,eqx,eqix->ei") of the element-first tables.
    """
    return _quad_matrix(w, c[:, None], a, slots and (1, slots))[0]


def _signed_sum(terms):
    """The sum of the (sign, array) terms, added left to right.

    Terms given as None are left out: in IEEE arithmetic x - y equals
    (-y) + x exactly, so leaving out a zero term changes no bit.
    """
    terms = [(s, t) for s, t in terms if t is not None]
    out = np.empty(np.broadcast_shapes(*(t.shape for _, t in terms)))
    (sign, first), *rest = terms
    np.multiply(first, sign, out=out)  # exact: the sign is +1 or -1
    for sign, term in rest:
        (np.add if sign > 0 else np.subtract)(out, term, out=out)
    return out


class _RuleTables:
    """Element tables of one quadrature rule on one block of elements.

    For each quadrature point q, local basis index i in 0..5 (three P1
    vertex functions, then three RT0 edge functions) and element e of
    the block the tables hold the scalar value U, the first-order
    residual R = r(basis_i) and the flux residual G = d(basis_i), plus
    the physical weights wj = w_q * 2|T_e|. Every table has the element
    axis last, (nQ, slot[, 2], nB), and the coefficients and the roots
    of A are (components..., nQ, nB), so the quadrature kernels read
    them as they are and each inner loop spans the block's elements.
    Each table entry is computed only on the slots where its basis part
    is non-zero, with the products and sums of the einsum expressions
    of the forms on element-first tables, so each form is bitwise what
    those give.

    U and R are built with the tables; they are all that loads read.
    The roots of A (and with them its admissibility check), the RT0
    values and G are built on first use, so tables that only serve
    loads never hold them.

    The coefficient checks run per block: a ``CoefficientError`` names
    the first worst offending point, in (element, point) order, of the
    first block that has one. Each coefficient is checked finite where
    it is evaluated: beta, div beta and gamma with the tables, A with
    its roots.
    """

    def __init__(self, asm, rule, block):
        geo = asm.mesh.geometry
        self.variant = asm.variant
        self._verts = geo.verts[block]
        self._rt_coef = geo.rt_coef[block]
        self.wj = np.ascontiguousarray(quadrature_weights(rule, geo.areas[block]).T)
        self._points = quadrature_points(rule, self._verts)  # (nQ, 2, nB)
        n_q, n_e = self.wj.shape
        # held by value: a reference to the assembler would be a cycle
        self._diffusion = asm.coeffs.A
        self.rt_divs = geo.rt_divs[block].T.copy()  # (3, nB)

        self.beta = self._coefficient(asm.coeffs.beta, "beta", (2,))
        self.gamma = self._coefficient(asm.coeffs.gamma, "gamma")
        div_beta = self._coefficient(asm.coeffs.div_beta, "div_beta")
        margin = 0.5 * div_beta + self.gamma
        if np.any(margin < 0.0):
            worst = int(np.argmin(margin.T))
            raise CoefficientError(
                "coefficient condition 0.5 div(beta) + gamma >= 0 fails at "
                f"point {self._point(worst)}: value {margin.T.flat[worst]:.6g}"
            )

        self.lam = rule.points[:, :, None]  # (nQ, 3, 1): P1 values, the same on every element
        # P1 gradients (slots 0-2) at the quadrature points
        grads = np.moveaxis(geo.p1_grads[block], 0, -1).copy()  # (3, 2, nB)
        self.grads = np.broadcast_to(grads, (n_q, 3, 2, n_e))

        # scalar value of each local basis function, zero for RT0 slots
        u_tab = np.zeros((n_q, 6, 1))
        u_tab[:, :3] = self.lam
        self.u_tab = np.broadcast_to(u_tab, (n_q, 6, n_e))
        self.u_p1 = self.u_tab[:, :3]  # the slots where U is not zero

        self.r_tab = np.empty((n_q, 6, n_e))
        self.r_tab[:, :3] = self.scalar_residual(u=self.lam, grad=self.grads)
        self.r_tab[:, 3:] = self.scalar_residual(div=self.rt_divs)

    @cached_property
    def a_roots(self):
        """(A^{1/2}, A^{-1/2}) at the points, each (2, 2, nQ, nB); checks A."""
        return _spd_roots(self._coefficient(self._diffusion, "A", (2, 2)), self._point)

    @cached_property
    def rt_vals(self):
        """RT0 values (slots 3-5) at the quadrature points, (nQ, 3, 2, nB)."""
        return rt0_values(self._rt_coef, self._verts, self._points)

    @cached_property
    def g_tab(self):
        """G = d(basis_i) at the quadrature points, (nQ, 6, 2, nB)."""
        n_q, _, n_e = self.r_tab.shape
        g_tab = np.empty((n_q, 6, 2, n_e))
        g_tab[:, :3] = self.flux_residual(u=self.lam, grad=self.grads)
        g_tab[:, 3:] = self.flux_residual(sigma=self.rt_vals)
        return g_tab

    def _point(self, flat_index):
        """The quadrature point of a flat (element, point) index, formatted."""
        n_q, _, n_e = self._points.shape
        e, q = np.unravel_index(flat_index, (n_e, n_q))
        x, y = self._points[q, :, e]
        return f"({x:.6g}, {y:.6g})"

    def _coefficient(self, fn, name, components=()):
        """A coefficient at the points, components + (nQ, nB); see ``field_table``."""
        return field_table(fn, self._points, f"coefficient {name}", components, CoefficientError)

    def scalar_residual(self, u=None, grad=None, div=None):
        """r (nQ, n, nB) of fields with a slot axis.

        The scalar value u and the divergence div broadcast to
        (nQ, n, nB), the gradient grad to (nQ, n, 2, nB). A part given
        as None is zero and left out. The terms are summed in the order
        of the definitions in the module docstring. This method and
        ``flux_residual`` are the one place where the two splittings
        differ.
        """
        gamma_u = None if u is None else self.gamma[:, None] * u
        if self.variant is ProblemVariant.PRIMARY:
            beta_grad = (
                None if grad is None
                else _contract(self.beta[:, :, None], np.moveaxis(grad, 2, 0))
            )
            return _signed_sum([(-1, div), (-1, beta_grad), (1, gamma_u)])
        return _signed_sum([(-1, div), (1, gamma_u)])

    def flux_residual(self, u=None, grad=None, sigma=None):
        """d (nQ, n, 2, nB) of fields with a slot axis, as ``scalar_residual``.

        The flux sigma broadcasts to (nQ, n, 2, nB).
        """
        a_sqrt, a_inv_sqrt = self.a_roots
        a_grad = None if grad is None else _slot_matvec(a_sqrt, grad)
        a_sig = None if sigma is None else _slot_matvec(a_inv_sqrt, sigma)
        if self.variant is ProblemVariant.PRIMARY:
            return _signed_sum([(1, a_grad), (-1, a_sig)])
        beta_u = None
        if u is not None:
            a_beta = _contract(np.moveaxis(a_inv_sqrt, 1, 0), self.beta[:, None])
            beta_u = np.moveaxis(a_beta, 0, 1)[:, None] * u[:, :, None]
        return _signed_sum([(1, a_sig), (-1, a_grad), (1, beta_u)])

    def exact_residuals(self, u, grad_u, sigma, div_sigma):
        """r (nQ, nB) and d (nQ, 2, nB) of an exact field given by vectorized callables."""
        pts = self._points
        u_vals = field_table(u, pts, "u")[:, None]
        grad = np.moveaxis(field_table(grad_u, pts, "grad_u", (2,)), 0, 1)[:, None]
        div = field_table(div_sigma, pts, "div_sigma")[:, None]
        sig = np.moveaxis(field_table(sigma, pts, "sigma", (2,)), 0, 1)[:, None]
        r = self.scalar_residual(u=u_vals, grad=grad, div=div)
        d = self.flux_residual(u=u_vals, grad=grad, sigma=sig)
        return r[:, 0], d[:, 0]


class FormAssembler:
    """Element-loop assembly of all forms for one mesh and coefficients.

    The element tables do not depend on the step k; every form takes k
    as its first argument. Matrix terms are integrated exactly to degree
    4 (enough for constant coefficients at lowest order), data terms
    (loads, functional values, exact-field products) to degree 6.

    Each form builds the tables it reads one block of BLOCK_ELEMENTS
    elements at a time, fills its whole-mesh, element-last array of
    element terms block by block and scatters it in one call. The
    tables read the element geometry that the mesh computes once
    (``Mesh.geometry``).
    No table outlives the call; the assembler keeps only the data
    points, which every source load evaluates its field at, and the load
    operators of the last step (about 18 MB at level 6; ``to_tests`` is
    the weighted test table in CSC form, see ``_load_operators``).
    """

    def __init__(self, mesh, dofmap, coeffs, variant):
        self.mesh = mesh
        self.dofmap = dofmap
        self.coeffs = coeffs
        self.variant = ProblemVariant(variant)
        # local slot -> global dof, -1 for boundary u slots
        self.local_dofs = np.concatenate(
            [
                _triangle_u_dofs(mesh, dofmap),
                dofmap.sigma_dof_of_edge[mesh.triangle_edges],
            ],
            axis=1,
        )
        self._load_ops = None  # (k, operators): one pair at a time, ~18 MB at level 6

    def _blocks(self, rule):
        """Yield (slice, _RuleTables) for the ``element_blocks`` of the mesh.

        The tables of a block are built when the generator reaches it.
        """
        for block in element_blocks(self.mesh.num_triangles):
            yield block, _RuleTables(self, rule, block)

    @cached_property
    def _data_points(self):
        """The data points (nE, nQ, 2), kept for sources evaluated per step.

        They stay element-first: a source's values at them, raveled, are
        in the e nQ + q column order of ``to_tests``.
        """
        points = quadrature_points(triangle_rule(DATA_DEGREE), self.mesh.geometry.verts)
        return _element_first(points)

    def _scatter_matrix(self, local):
        """Sum element-last element matrices into a global CSR matrix.

        ``local`` is (6, m, nE), with columns the first m local slots:
        m = 6 gives a square matrix on the product space, m = 3 one
        acting on u-coefficients. A (2, 3, 3, nE) ``local`` holds the
        u-u and the sigma-sigma block of each element only, and the
        matrix stores no u-sigma entry. The entries are scattered in
        (element, row, column) order, so duplicates are summed as from
        an element-first array.
        """
        local = np.moveaxis(local, -1, 0)
        if not np.isfinite(local).all():
            raise ValueError("non-finite element matrix entries")
        n = self.dofmap.total
        ld = self.local_dofs
        if local.ndim == 4:
            ld = ld.reshape(-1, 2, 3)  # u slots, sigma slots
            return scatter_matrix(local, ld[..., None], ld[..., None, :], (n, n))
        n_cols = n if local.shape[2] == 6 else self.dofmap.n_u
        return scatter_matrix(
            local, ld[:, :, None], ld[:, None, : local.shape[2]], (n, n_cols)
        )

    def total_matrix(self, k):
        """Matrix of the full time-step form (symmetric positive definite)."""
        k = _step(k)
        local = np.empty((6, 6, self.mesh.num_triangles))
        for block, t in self._blocks(triangle_rule(MATRIX_DEGREE)):
            u = t.u_p1
            local[..., block] = (
                _quad_matrix(t.wj / k, u, u, (6, 6))
                + _quad_matrix(t.wj, t.r_tab, u, (6, 6))
                + _quad_matrix(t.wj, u, t.r_tab, (6, 6))
                + _quad_matrix(t.wj * k, t.r_tab, t.r_tab)
                + _quad_matrix(t.wj, t.g_tab, t.g_tab)
            )
        return self._scatter_matrix(local)

    def nonsymmetric_matrix(self, k):
        """Matrix of the spatial part <r(u), v> + k<r(u), r(v)> + <d(u), d(v)>."""
        k = _step(k)
        local = np.empty((6, 6, self.mesh.num_triangles))
        for block, t in self._blocks(triangle_rule(MATRIX_DEGREE)):
            local[..., block] = (
                _quad_matrix(t.wj, t.u_p1, t.r_tab, (6, 6))
                + _quad_matrix(t.wj * k, t.r_tab, t.r_tab)
                + _quad_matrix(t.wj, t.g_tab, t.g_tab)
            )
        return self._scatter_matrix(local)

    def _load_operators(self, k):
        """Sparse operators of the load functional for step k.

        ``to_tests`` maps values at the data points to the test
        functions: it is the weighted test table wj * (v/k + r(v)) in
        CSC form, column e nQ + q holding data point q of element e with
        one entry per slot that has a DOF, that DOF as its row. Each
        block writes its columns' entries as one masked transpose of its
        table; a second pass, after ``from_u`` is scattered, writes their
        rows. ``to_tests @ x`` adds data x[j] into each row for ascending
        columns j, from zero: the (e, q) order in which the column-sorted
        CSR rows of a COO scatter sum, so the products are bitwise equal.
        ``from_u`` = to_tests I, where I interpolates u-coefficients to
        the data points; its element matrices are written block by block
        too, so no whole-mesh table is held. The pair is kept until a
        call with another k replaces it.
        """
        if self._load_ops is None or self._load_ops[0] != k:
            self._load_ops = None
            rule = triangle_rule(DATA_DEGREE)
            n_e, n_q = self.mesh.num_triangles, rule.weights.size
            # int32, as scipy picks while nE nQ and the entry count stay
            # below 2**31 (0.2 M and 1.2 M at level 6)
            indptr = np.zeros(n_e * n_q + 1, dtype=np.int32)
            np.cumsum(np.repeat((self.local_dofs >= 0).sum(axis=1), n_q), out=indptr[1:])

            def entries(block):
                """The block's slice of the entries and its (nB, nQ, 6) local DOFs."""
                dofs = self.local_dofs[block, None, :]
                span = slice(indptr[block.start * n_q], indptr[block.stop * n_q])
                return span, np.broadcast_to(dofs, (dofs.shape[0], n_q, 6))

            data = np.empty(indptr[-1])
            local = np.empty((6, 3, n_e))
            for block, t in self._blocks(rule):
                test_factor = t.u_tab / k + t.r_tab  # v/k + r(v)
                local[..., block] = _quad_matrix(t.wj, test_factor, rule.points[:, :, None])
                weighted = t.wj[:, None] * test_factor
                span, dofs = entries(block)
                data[span] = np.moveaxis(weighted, -1, 0)[dofs >= 0]
                del t, test_factor, weighted  # freed before the next block's tables
            from_u = self._scatter_matrix(local)
            del local
            indices = np.empty(indptr[-1], dtype=np.int32)
            for block in element_blocks(n_e):
                span, dofs = entries(block)
                indices[span] = dofs[dofs >= 0]
            to_tests = sp.csc_matrix((data, indices, indptr), shape=(self.dofmap.total, n_e * n_q))
            self._load_ops = (k, (to_tests, from_u))
        return self._load_ops[1]

    def _source_term(self, k, to_tests, f):
        """k to_tests f: the load of the field f at the data points."""
        return k * (to_tests @ field_values(f, self._data_points, "source f").ravel())

    def source_load(self, k, f):
        """Load of F(v; f, 0) = <k f, v/k + r(v)> of a field f, with no previous iterate."""
        k = _step(k)
        return self._source_term(k, self._load_operators(k)[0], f)

    def load_vector(self, k, f=None, w=None):
        """Load of F(v; f, w) = <k f + w, v/k + r(v)>.

        f is a callable (x, y) -> array (data at the current time
        level) or None; w, the previous iterate, is a u-coefficient
        vector (checked for length and finiteness) or None. The first
        call with a given k builds the sparse load operators, so each
        later call with that k costs one data evaluation and two sparse
        products.
        """
        k = _step(k)
        to_tests, from_u = self._load_operators(k)
        if w is None:
            load = np.zeros(self.dofmap.total)
        else:
            load = from_u @ _coefficient_vector(w, self.dofmap.n_u, "w")
        if f is not None:
            load += self._source_term(k, to_tests, f)
        return load

    def _gather_local(self, u_coeffs, sigma_coeffs):
        local = np.zeros((self.mesh.num_triangles, 6))
        local[:, :3] = p1_vertex_values(u_coeffs, self.mesh, self.dofmap, "u_coeffs")
        if sigma_coeffs is not None:
            local[:, 3:] = rt0_edge_values(
                sigma_coeffs, self.mesh, self.dofmap, "sigma_coeffs"
            )
        return local

    def lsq_functional(self, k, u_coeffs, sigma_coeffs, g=None, w=None):
        """Value of the least-squares functional at a discrete pair.

        g is a data callable or None; w, the previous iterate, is a
        u-coefficient vector or None.
        """
        return float(np.sum(self._lsq_terms(k, u_coeffs, sigma_coeffs, g, w)))

    def lsq_indicators(self, k, u_coeffs, sigma_coeffs, g=None, w=None):
        """(nE,) element contributions of ``lsq_functional``, which sum to it."""
        return np.sum(self._lsq_terms(k, u_coeffs, sigma_coeffs, g, w), axis=1)

    def _lsq_terms(self, k, u_coeffs, sigma_coeffs, g, w):
        """(nE, nQ) weighted integrand of the functional at the data points."""
        k = _step(k)
        rule = triangle_rule(DATA_DEGREE)
        local = self._gather_local(u_coeffs, sigma_coeffs)
        if w is None:
            w = np.zeros(self.dofmap.n_u)
        w_local = p1_vertex_values(w, self.mesh, self.dofmap, "w")
        w_vals = np.einsum("qi,ei->eq", rule.points, w_local)
        data = (
            np.zeros_like(w_vals) if g is None
            else field_values(g, self._data_points, "data g")
        )
        terms = np.empty(w_vals.shape)
        for block, t in self._blocks(rule):
            # einsum sums over the slots in an order of its own, so it reads
            # element-first copies of the tables, and the terms stay
            # element-first for the sums over them
            u_tab, r_tab, g_tab = map(_element_first, (t.u_tab, t.r_tab, t.g_tab))
            u_vals = np.einsum("eqi,ei->eq", u_tab, local[block])
            r_vals = np.einsum("eqi,ei->eq", r_tab, local[block])
            g_vals = np.einsum("eqix,ei->eqx", g_tab, local[block])
            scalar_res = (u_vals - w_vals[block]) / k + r_vals - data[block]
            terms[block] = t.wj.T * (
                k * scalar_res**2 + np.einsum("eqx,eqx->eq", g_vals, g_vals)
            )
        return terms

    def nonsymmetric_load_from_fields(self, k, u, grad_u, sigma, div_sigma):
        """Load b(exact pair, basis_i) for the elliptic projection."""
        k = _step(k)
        local = np.empty((6, self.mesh.num_triangles))
        for block, t in self._blocks(triangle_rule(DATA_DEGREE)):
            r_ex, g_ex = t.exact_residuals(u, grad_u, sigma, div_sigma)
            local[:, block] = (
                _quad_vector(t.wj, r_ex, t.u_p1, 6)
                + _quad_vector(t.wj * k, r_ex, t.r_tab)
                + _quad_vector(t.wj, g_ex, t.g_tab)
            )
        return scatter_vector(local.T, self.local_dofs, self.dofmap.total)

    def natural_gram(self, k):
        """Gram matrix of ||grad u||^2 + ||sigma||^2 + k ||div sigma||^2."""
        k = _step(k)
        local = np.empty((2, 3, 3, self.mesh.num_triangles))  # u-u, sigma-sigma
        for block, t in self._blocks(triangle_rule(MATRIX_DEGREE)):
            divs = np.broadcast_to(t.rt_divs, t.r_tab[:, 3:].shape)
            local[0, ..., block] = _quad_matrix(t.wj, t.grads, t.grads)
            local[1, ..., block] = _quad_matrix(t.wj, t.rt_vals, t.rt_vals) + _quad_matrix(
                t.wj * k, divs, divs
            )
        return self._scatter_matrix(local)


# Standard continuous-Galerkin P1 pieces, used by the initial-data
# projection and the reference scheme for the decoupled case.


def assemble_p1_mass(mesh, dofmap):
    """Mass matrix <u, v> on the interior-vertex P1 space."""
    rule = triangle_rule(MATRIX_DEGREE)
    wj = quadrature_weights(rule, mesh.geometry.areas)
    local = np.einsum("eq,qi,qj->eij", wj, rule.points, rule.points)
    dofs = _triangle_u_dofs(mesh, dofmap)
    return scatter_matrix(local, dofs[:, :, None], dofs[:, None, :], (dofmap.n_u,) * 2)


def assemble_p1_load(mesh, dofmap, fn, name):
    """Load vector <f, v> on the interior-vertex P1 space of the field fn called name."""
    rule = triangle_rule(DATA_DEGREE)
    geo = mesh.geometry
    wj = quadrature_weights(rule, geo.areas)
    vals = field_values(fn, _element_first(quadrature_points(rule, geo.verts)), name)
    local = np.einsum("eq,eq,qi->ei", wj, vals, rule.points)
    return scatter_vector(local, _triangle_u_dofs(mesh, dofmap), dofmap.n_u)


def assemble_p1_stiffness(mesh, dofmap):
    """Stiffness matrix <grad u, grad v> on the interior-vertex P1 space."""
    geo = mesh.geometry
    wj = quadrature_weights(triangle_rule(MATRIX_DEGREE), geo.areas)
    local = np.einsum("eq,eix,ejx->eij", wj, geo.p1_grads, geo.p1_grads)
    dofs = _triangle_u_dofs(mesh, dofmap)
    return scatter_matrix(local, dofs[:, :, None], dofs[:, None, :], (dofmap.n_u,) * 2)
