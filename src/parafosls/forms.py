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
fields prepend an axis of length 2, matrix fields prepend (2, 2).
"""

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .quadrature import triangle_rule
from .spaces import element_geometry


class CoefficientError(ValueError):
    """A PDE coefficient violates its admissibility condition."""


class ProblemVariant(enum.Enum):
    """First-order splitting: flux with or without the convective part."""

    PRIMARY = "primary"
    ALTERNATIVE = "alternative"


def _as_scalar_field(value):
    value = float(value)

    def fn(x, y):
        return np.full(np.broadcast(x, y).shape, value)

    return fn


def _as_vector_field(vec):
    vec = np.asarray(vec, dtype=float)

    def fn(x, y):
        shape = np.broadcast(x, y).shape
        out = np.empty((2,) + shape)
        out[0] = vec[0]
        out[1] = vec[1]
        return out

    return fn


def _as_matrix_field(mat):
    mat = np.asarray(mat, dtype=float)

    def fn(x, y):
        shape = np.broadcast(x, y).shape
        out = np.empty((2, 2) + shape)
        for i in range(2):
            for j in range(2):
                out[i, j] = mat[i, j]
        return out

    return fn


def _sym_matrix_power(values, power):
    """Apply a power to a field of symmetric 2x2 matrices.

    ``values`` has shape (2, 2) + shape; eigenvalues must be positive.
    """
    stacked = np.moveaxis(values, (0, 1), (-2, -1))
    vals, vecs = np.linalg.eigh(stacked)
    if np.any(vals <= 0.0):
        raise CoefficientError("diffusion matrix has a non-positive eigenvalue")
    powered = np.einsum("...ik,...k,...jk->...ij", vecs, vals**power, vecs)
    return np.moveaxis(powered, (-2, -1), (0, 1))


@dataclass(frozen=True)
class Coefficients:
    """Elliptic coefficients A (diffusion), beta (convection), gamma (reaction).

    ``div_beta`` is the analytic divergence of beta, supplied by the
    caller (it enters the admissibility check 0.5 div beta + gamma >= 0
    and must not be approximated numerically). ``A_sqrt``/``A_inv_sqrt``
    are derived from A by pointwise symmetric eigendecomposition.
    """

    A: Callable
    A_sqrt: Callable
    A_inv_sqrt: Callable
    beta: Callable
    div_beta: Callable
    gamma: Callable

    @classmethod
    def make(cls, A, beta, div_beta, gamma):
        """Build from the four basic callables, deriving the matrix roots."""

        def a_sqrt(x, y):
            return _sym_matrix_power(A(x, y), 0.5)

        def a_inv_sqrt(x, y):
            return _sym_matrix_power(A(x, y), -0.5)

        return cls(
            A=A,
            A_sqrt=a_sqrt,
            A_inv_sqrt=a_inv_sqrt,
            beta=beta,
            div_beta=div_beta,
            gamma=gamma,
        )

    @classmethod
    def constant(cls, A=((1.0, 0.0), (0.0, 1.0)), beta=(0.0, 0.0), gamma=0.0):
        """Constant coefficients; div beta is zero."""
        return cls.make(
            A=_as_matrix_field(A),
            beta=_as_vector_field(beta),
            div_beta=_as_scalar_field(0.0),
            gamma=_as_scalar_field(gamma),
        )


class _RuleTables:
    """Per-quadrature-rule element tables shared by all forms.

    For each element e, quadrature point q and local basis index
    i in 0..5 (three P1 vertex functions, then three RT0 edge
    functions) the tables hold the scalar value U, the first-order
    residual R = r(basis_i) and the flux residual G = d(basis_i), plus
    the physical weights wj = w_q * 2|T_e| and the test factor
    TF = U/k + R used by load vectors.
    """

    def __init__(self, asm, rule):
        mesh = asm.mesh
        lam = rule.points  # (nQ, 3)
        n_e = mesh.num_triangles
        n_q = lam.shape[0]

        self.rule = rule
        self.wj = rule.weights[None, :] * (2.0 * asm.areas[:, None])  # (nE, nQ)

        # physical quadrature points
        pts = np.einsum("qi,eix->eqx", lam, asm.verts)
        self.x = pts[..., 0]
        self.y = pts[..., 1]

        self.lam = lam
        a_vals = np.moveaxis(asm.coeffs.A(self.x, self.y), (0, 1), (-2, -1))
        eigs = np.linalg.eigvalsh(a_vals)
        if np.any(eigs[..., 0] <= 0.0):
            e, q = np.unravel_index(int(np.argmin(eigs[..., 0])), (n_e, n_q))
            raise CoefficientError(
                "diffusion matrix not positive definite at point "
                f"({self.x[e, q]:.6g}, {self.y[e, q]:.6g}): "
                f"lambda_min = {eigs[e, q, 0]:.6g}"
            )
        self.a_sqrt = np.moveaxis(
            asm.coeffs.A_sqrt(self.x, self.y), (0, 1), (-2, -1)
        )  # (nE, nQ, 2, 2)
        self.a_inv_sqrt = np.moveaxis(
            asm.coeffs.A_inv_sqrt(self.x, self.y), (0, 1), (-2, -1)
        )
        self.beta = np.moveaxis(
            np.broadcast_to(
                asm.coeffs.beta(self.x, self.y), (2, n_e, n_q)
            ),
            0,
            -1,
        )  # (nE, nQ, 2)
        self.gamma = np.broadcast_to(asm.coeffs.gamma(self.x, self.y), (n_e, n_q))
        div_beta = np.broadcast_to(asm.coeffs.div_beta(self.x, self.y), (n_e, n_q))
        margin = 0.5 * div_beta + self.gamma
        if np.any(margin < 0.0):
            e, q = np.unravel_index(int(np.argmin(margin)), (n_e, n_q))
            raise CoefficientError(
                "coefficient condition 0.5 div(beta) + gamma >= 0 fails at "
                f"point ({self.x[e, q]:.6g}, {self.y[e, q]:.6g}): "
                f"value {margin[e, q]:.6g}"
            )

        # RT0 values at the quadrature points: c_i (x_q - p_i)
        rt_vals = asm.rt_coef[:, None, :, None] * (
            pts[:, :, None, :] - asm.verts[:, None, :, :]
        )  # (nE, nQ, 3, 2)

        # scalar value of each local basis function
        u_tab = np.zeros((n_e, n_q, 6))
        u_tab[:, :, :3] = lam[None, :, :]
        self.u_tab = u_tab

        # gradient of the P1 part, zero for RT0 slots
        grad_tab = np.zeros((n_e, n_q, 6, 2))
        grad_tab[:, :, :3, :] = asm.p1_grads[:, None, :, :]

        # sigma value / divergence, zero for P1 slots
        sig_tab = np.zeros((n_e, n_q, 6, 2))
        sig_tab[:, :, 3:, :] = rt_vals
        div_tab = np.zeros((n_e, n_q, 6))
        div_tab[:, :, 3:] = asm.rt_divs[:, None, :]

        if asm.variant is ProblemVariant.PRIMARY:
            r_tab = (
                -div_tab
                - np.einsum("eqx,eqix->eqi", self.beta, grad_tab)
                + self.gamma[:, :, None] * u_tab
            )
            g_tab = np.einsum(
                "eqxy,eqiy->eqix", self.a_sqrt, grad_tab
            ) - np.einsum("eqxy,eqiy->eqix", self.a_inv_sqrt, sig_tab)
        else:
            r_tab = -div_tab + self.gamma[:, :, None] * u_tab
            g_tab = (
                np.einsum("eqxy,eqiy->eqix", self.a_inv_sqrt, sig_tab)
                - np.einsum("eqxy,eqiy->eqix", self.a_sqrt, grad_tab)
                + np.einsum("eqxy,eqy->eqx", self.a_inv_sqrt, self.beta)[
                    :, :, None, :
                ]
                * u_tab[:, :, :, None]
            )

        self.r_tab = r_tab
        self.g_tab = g_tab
        self.grad_tab = grad_tab
        self.sig_tab = sig_tab
        self.div_tab = div_tab
        self.test_factor = u_tab / asm.k + r_tab

    def exact_residuals(self, asm, u, grad_u, sigma, div_sigma):
        """r and d of an exact field given by vectorized callables."""
        u_ex = np.broadcast_to(u(self.x, self.y), self.x.shape)
        grad_ex = np.moveaxis(
            np.broadcast_to(grad_u(self.x, self.y), (2,) + self.x.shape), 0, -1
        )
        sig_ex = np.moveaxis(
            np.broadcast_to(sigma(self.x, self.y), (2,) + self.x.shape), 0, -1
        )
        div_ex = np.broadcast_to(div_sigma(self.x, self.y), self.x.shape)
        if asm.variant is ProblemVariant.PRIMARY:
            r_ex = -div_ex - np.einsum("eqx,eqx->eq", self.beta, grad_ex) \
                + self.gamma * u_ex
            g_ex = np.einsum("eqxy,eqy->eqx", self.a_sqrt, grad_ex) - np.einsum(
                "eqxy,eqy->eqx", self.a_inv_sqrt, sig_ex
            )
        else:
            r_ex = -div_ex + self.gamma * u_ex
            g_ex = (
                np.einsum("eqxy,eqy->eqx", self.a_inv_sqrt, sig_ex)
                - np.einsum("eqxy,eqy->eqx", self.a_sqrt, grad_ex)
                + np.einsum("eqxy,eqy->eqx", self.a_inv_sqrt, self.beta)
                * u_ex[:, :, None]
            )
        return r_ex, g_ex


class FormAssembler:
    """Element-loop assembly of all forms for one mesh/coefficients/k.

    Matrix terms are integrated with a rule exact to ``matrix_degree``
    (enough for constant coefficients at lowest order), data terms
    (loads, functional values, exact-field products) with
    ``data_degree``.
    """

    def __init__(self, mesh, dofmap, coeffs, k, variant, matrix_degree=4, data_degree=6):
        if k <= 0.0:
            raise ValueError(f"time step must be positive, got {k}")
        self.mesh = mesh
        self.dofmap = dofmap
        self.coeffs = coeffs
        self.k = float(k)
        self.variant = ProblemVariant(variant)

        (
            self.verts,
            self.areas,
            self.p1_grads,
            self.rt_coef,
            self.rt_divs,
        ) = element_geometry(mesh)

        # local slot -> global dof, -1 for boundary u slots
        self.local_dofs = np.concatenate(
            [
                dofmap.u_dof_of_vertex[mesh.triangles],
                dofmap.sigma_dof_of_edge[mesh.triangle_edges],
            ],
            axis=1,
        )

        self._matrix_rule = triangle_rule(matrix_degree)
        self._data_rule = triangle_rule(data_degree)
        self._tables = {}
        self._load_ops = None

    def tables(self, rule):
        key = id(rule)
        if key not in self._tables:
            self._tables[key] = _RuleTables(self, rule)
        return self._tables[key]

    @property
    def matrix_tables(self):
        return self.tables(self._matrix_rule)

    @property
    def data_tables(self):
        return self.tables(self._data_rule)

    def _scatter_matrix(self, local):
        """Sum (nE, 6, m) element matrices into a global CSR matrix.

        Columns are the first m local slots: m = 6 gives a square matrix
        on the product space, m = 3 one acting on u-coefficients.
        """
        if not np.isfinite(local).all():
            raise ValueError("non-finite element matrix entries")
        n = self.dofmap.total
        n_cols = n if local.shape[2] == 6 else self.dofmap.n_u
        ld = self.local_dofs
        rows = np.broadcast_to(ld[:, :, None], local.shape)
        cols = np.broadcast_to(ld[:, None, : local.shape[2]], local.shape)
        mask = (rows >= 0) & (cols >= 0)
        coo = sp.coo_matrix(
            (local[mask], (rows[mask], cols[mask])), shape=(n, n_cols)
        )
        return coo.tocsr()

    def _scatter_vector(self, local):
        """Sum (nE, 6) element vectors into a global vector."""
        out = np.zeros(self.dofmap.total)
        mask = self.local_dofs >= 0
        np.add.at(out, self.local_dofs[mask], local[mask])
        return out

    def total_matrix(self):
        """Matrix of the full time-step form (symmetric positive definite)."""
        t = self.matrix_tables
        local = (
            np.einsum("eq,eqi,eqj->eij", t.wj / self.k, t.u_tab, t.u_tab)
            + np.einsum("eq,eqi,eqj->eij", t.wj, t.r_tab, t.u_tab)
            + np.einsum("eq,eqi,eqj->eij", t.wj, t.u_tab, t.r_tab)
            + np.einsum("eq,eqi,eqj->eij", t.wj * self.k, t.r_tab, t.r_tab)
            + np.einsum("eq,eqix,eqjx->eij", t.wj, t.g_tab, t.g_tab)
        )
        return self._scatter_matrix(local)

    def nonsymmetric_matrix(self):
        """Matrix of the spatial part <r(u), v> + k<r(u), r(v)> + <d(u), d(v)>."""
        t = self.matrix_tables
        local = (
            np.einsum("eq,eqi,eqj->eij", t.wj, t.u_tab, t.r_tab)
            + np.einsum("eq,eqi,eqj->eij", t.wj * self.k, t.r_tab, t.r_tab)
            + np.einsum("eq,eqix,eqjx->eij", t.wj, t.g_tab, t.g_tab)
        )
        return self._scatter_matrix(local)

    def coupling_matrix(self):
        """Matrix of the lone coupling term <u, r(v)>."""
        t = self.matrix_tables
        local = np.einsum("eq,eqi,eqj->eij", t.wj, t.r_tab, t.u_tab)
        return self._scatter_matrix(local)

    def scaled_mass_matrix(self):
        """Matrix of (1/k)<u, v> on the product space (only u-u entries)."""
        t = self.matrix_tables
        local = np.einsum("eq,eqi,eqj->eij", t.wj / self.k, t.u_tab, t.u_tab)
        return self._scatter_matrix(local)

    def _u_at_quadrature(self, tables, w):
        """Values of the previous-step datum w at the data points."""
        if w is None:
            return np.zeros_like(tables.x)
        if callable(w):
            return self._at_data_points(w, "previous-step datum w")
        w = np.asarray(w, dtype=float)
        vertex_vals = np.zeros(self.mesh.num_vertices)
        interior = self.dofmap.u_dof_of_vertex >= 0
        vertex_vals[interior] = w[self.dofmap.u_dof_of_vertex[interior]]
        local = vertex_vals[self.mesh.triangles]  # (nE, 3)
        return np.einsum("qi,ei->eq", tables.lam, local)

    def _load_operators(self):
        """Sparse operators of the load functional, built on first use.

        ``to_tests`` maps values at the data points to the test
        functions (entries wj * (v/k + r(v)) scattered by
        ``local_dofs``); ``from_u`` = to_tests I, where I interpolates
        u-coefficients to the data points.
        """
        if self._load_ops is None:
            t = self.data_tables
            weighted = t.wj[:, :, None] * t.test_factor  # (nE, nQ, 6)
            rows = np.broadcast_to(self.local_dofs[:, None, :], weighted.shape)
            points = np.arange(t.x.size).reshape(t.x.shape)
            cols = np.broadcast_to(points[:, :, None], weighted.shape)
            mask = rows >= 0
            to_tests = sp.coo_matrix(
                (weighted[mask], (rows[mask], cols[mask])),
                shape=(self.dofmap.total, t.x.size),
            ).tocsr()
            from_u = self._scatter_matrix(np.einsum("eqi,qj->eij", weighted, t.lam))
            self._load_ops = (to_tests, from_u)
        return self._load_ops

    def _at_data_points(self, fn, name):
        """Values of a data callable at the data points."""
        t = self.data_tables
        values = np.asarray(fn(t.x, t.y), dtype=float)
        try:
            return np.broadcast_to(values, t.x.shape)
        except ValueError:
            raise ValueError(
                f"{name} returned an array of shape {values.shape}; expected "
                f"shape {t.x.shape} (elements x data points) or one that "
                "broadcasts to it"
            ) from None

    def load_vector(self, f=None, w=None):
        """Load of F(v; f, w) = <k f + w, v/k + r(v)>.

        f is a callable (x, y) -> array (data at the current time
        level) or None; w is a u-coefficient vector, a callable, or
        None. The first call builds the sparse load operators, so each
        later call costs one data evaluation and two sparse products.
        """
        to_tests, from_u = self._load_operators()
        load = np.zeros(self.dofmap.total)
        if f is not None:
            load += self.k * (to_tests @ self._at_data_points(f, "source f").ravel())
        if callable(w):
            load += to_tests @ self._at_data_points(w, "previous-step datum w").ravel()
        elif w is not None:
            load += from_u @ np.asarray(w, dtype=float)
        return load

    def _gather_local(self, u_coeffs, sigma_coeffs):
        local = np.zeros((self.mesh.num_triangles, 6))
        u_slots = self.local_dofs[:, :3]
        valid = u_slots >= 0
        local[:, :3][valid] = np.asarray(u_coeffs, dtype=float)[u_slots[valid]]
        if sigma_coeffs is not None:
            local[:, 3:] = np.asarray(sigma_coeffs, dtype=float)[
                self.mesh.triangle_edges
            ]
        return local

    def lsq_functional(self, u_coeffs, sigma_coeffs, g=None, w=None):
        """Value of the least-squares functional at a discrete pair."""
        t = self.data_tables
        local = self._gather_local(u_coeffs, sigma_coeffs)
        u_vals = np.einsum("eqi,ei->eq", t.u_tab, local)
        r_vals = np.einsum("eqi,ei->eq", t.r_tab, local)
        g_vals = np.einsum("eqix,ei->eqx", t.g_tab, local)
        w_vals = self._u_at_quadrature(t, w)
        data = np.zeros_like(u_vals) if g is None else self._at_data_points(g, "data g")
        scalar_res = (u_vals - w_vals) / self.k + r_vals - data
        value = np.sum(
            t.wj * (self.k * scalar_res**2 + np.einsum("eqx,eqx->eq", g_vals, g_vals))
        )
        return float(value)

    def nonsymmetric_load_from_fields(self, u, grad_u, sigma, div_sigma):
        """Load b(exact pair, basis_i) for the elliptic projection."""
        t = self.data_tables
        r_ex, g_ex = t.exact_residuals(self, u, grad_u, sigma, div_sigma)
        local = (
            np.einsum("eq,eq,eqi->ei", t.wj, r_ex, t.u_tab)
            + np.einsum("eq,eq,eqi->ei", t.wj * self.k, r_ex, t.r_tab)
            + np.einsum("eq,eqx,eqix->ei", t.wj, g_ex, t.g_tab)
        )
        return self._scatter_vector(local)

    def natural_gram(self):
        """Gram matrix of ||grad u||^2 + ||sigma||^2 + k ||div sigma||^2."""
        t = self.matrix_tables
        local = (
            np.einsum("eq,eqix,eqjx->eij", t.wj, t.grad_tab, t.grad_tab)
            + np.einsum("eq,eqix,eqjx->eij", t.wj, t.sig_tab, t.sig_tab)
            + np.einsum("eq,eqi,eqj->eij", t.wj * self.k, t.div_tab, t.div_tab)
        )
        return self._scatter_matrix(local)


def assemble_total_form(mesh, dofmap, coeffs, k, variant):
    """Sparse matrix of the full time-step bilinear form."""
    return FormAssembler(mesh, dofmap, coeffs, k, variant).total_matrix()


def assemble_nonsymmetric_form(mesh, dofmap, coeffs, k, variant):
    """Sparse matrix of the non-symmetric spatial form."""
    return FormAssembler(mesh, dofmap, coeffs, k, variant).nonsymmetric_matrix()


def assemble_rhs(mesh, dofmap, coeffs, k, f_n, w, variant):
    """Load vector of F(.; f_n, w) over all test basis functions."""
    return FormAssembler(mesh, dofmap, coeffs, k, variant).load_vector(f=f_n, w=w)


def evaluate_lsq_functional(state, mesh, dofmap, coeffs, k, g, w, variant):
    """Least-squares functional value at a discrete state."""
    asm = FormAssembler(mesh, dofmap, coeffs, k, variant)
    return asm.lsq_functional(state.u_coeffs, state.sigma_coeffs, g=g, w=w)


# Standard continuous-Galerkin P1 pieces, used by the initial-data
# projection and the reference scheme for the decoupled case.


def _p1_context(mesh, dofmap, degree):
    rule = triangle_rule(degree)
    verts, areas, p1_grads, _, _ = element_geometry(mesh)
    wj = rule.weights[None, :] * (2.0 * areas[:, None])
    dofs = dofmap.u_dof_of_vertex[mesh.triangles]
    return rule, verts, p1_grads, wj, dofs


def _scatter_p1(local, dofs, n):
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    mask = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix(
        (local[mask], (rows[mask], cols[mask])), shape=(n, n)
    ).tocsr()


def assemble_p1_mass(mesh, dofmap, degree=4):
    """Mass matrix <u, v> on the interior-vertex P1 space."""
    rule, _, _, wj, dofs = _p1_context(mesh, dofmap, degree)
    lam = rule.points
    local = np.einsum("eq,qi,qj->eij", wj, lam, lam)
    return _scatter_p1(local, dofs, dofmap.n_u)


def assemble_p1_load(mesh, dofmap, fn, degree=6):
    """Load vector <f, v> on the interior-vertex P1 space."""
    rule, verts, _, wj, dofs = _p1_context(mesh, dofmap, degree)
    lam = rule.points
    pts = np.einsum("qi,eix->eqx", lam, verts)
    vals = np.broadcast_to(fn(pts[..., 0], pts[..., 1]), pts.shape[:2])
    local = np.einsum("eq,eq,qi->ei", wj, vals, lam)
    out = np.zeros(dofmap.n_u)
    mask = dofs >= 0
    np.add.at(out, dofs[mask], local[mask])
    return out


def assemble_p1_stiffness(mesh, dofmap, degree=4):
    """Stiffness matrix <grad u, grad v> on the interior-vertex P1 space."""
    rule, _, grads, wj, dofs = _p1_context(mesh, dofmap, degree)
    local = np.einsum("eq,eix,ejx->eij", wj, grads, grads)
    return _scatter_p1(local, dofs, dofmap.n_u)
