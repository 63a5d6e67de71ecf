"""Sparse direct solvers with a residual contract.

A FactorHandle factorizes with SuperLU and polishes each solution with
iterative refinement until the requested relative residual is met;
symmetric positive definite systems are factorized in SuperLU's
symmetric mode (SPDFactorHandle, solve_spd).
Direct solves are deterministic, so identical inputs give bitwise
identical outputs, and one factorization can be reused across the many
right-hand sides of a constant-step time loop.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_TOL = 1e-10
_MAX_REFINEMENTS = 10


class SolverError(RuntimeError):
    """Factorization failed or the residual contract could not be met."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class NotSPDError(SolverError):
    """The operator is not symmetric positive definite."""


@dataclass
class SolveReport:
    """Solution vector plus the achieved relative residual.

    ``iterations`` counts refinement sweeps (0 when the factorization
    alone met the tolerance).
    """

    solution: np.ndarray
    relative_residual: float
    iterations: int


class FactorHandle:
    """Reusable sparse LU factorization of one operator."""

    _SPLU_OPTIONS = {}

    def __init__(self, matrix):
        matrix = sp.csc_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got {matrix.shape}")
        self.matrix = matrix
        try:
            self.lu = spla.splu(matrix, **self._SPLU_OPTIONS)
        except RuntimeError as exc:
            raise SolverError(f"factorization failed: {exc}") from exc

    def solve(self, b, tol=DEFAULT_TOL):
        b = np.asarray(b, dtype=float)
        finite = np.isfinite(b)
        if not finite.all():
            raise SolverError(
                f"non-finite right-hand side: {b.size - np.count_nonzero(finite)} "
                f"of {b.size} entries are NaN or infinite"
            )
        norm_b = np.linalg.norm(b)
        x = self.lu.solve(b)
        if norm_b == 0.0:
            return SolveReport(x, 0.0, 0)
        best = np.inf
        for sweep in range(_MAX_REFINEMENTS + 1):
            residual = b - self.matrix @ x
            rel = np.linalg.norm(residual) / norm_b
            best = min(best, rel)
            if rel <= tol:
                return SolveReport(x, rel, sweep)
            x = x + self.lu.solve(residual)
        raise SolverError(
            f"residual {best:.3e} above tolerance {tol:.3e} "
            f"after {_MAX_REFINEMENTS} refinement sweeps",
            best_residual=best,
        )


class SPDFactorHandle(FactorHandle):
    """Reusable factorization of a symmetric positive definite operator.

    SuperLU runs in symmetric mode: minimum degree ordering on the
    structure of A' + A and pivots taken from the diagonal. This keeps
    the symmetric sparsity pattern; on the least-squares forms it leaves
    less than half the fill of the default column ordering. The
    residual contract of ``solve`` still guards the result.
    """

    _SPLU_OPTIONS = dict(
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


def solve_spd(matrix, b, tol=DEFAULT_TOL):
    """Solve a symmetric positive definite sparse system.

    Symmetry is the caller's responsibility; positive definiteness is
    certified by the factorization before the solve. Symmetric mode
    pivots on the diagonal (the row and column permutations agree), so
    for a symmetric matrix the pivots are those of an LDL' factorization
    of the symmetrically permuted matrix, all positive exactly when the
    matrix is positive definite. Otherwise NotSPDError is raised.
    """
    handle = SPDFactorHandle(matrix)
    lu = handle.lu
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NotSPDError("non-positive curvature: symmetric-mode pivoting left the diagonal")
    pivots = lu.U.diagonal()
    j = int(np.argmin(pivots))
    if not pivots[j] > 0.0:
        # pivot j belongs to the unknown that the ordering moved to slot j
        index = int(np.flatnonzero(lu.perm_c == j)[0])
        raise NotSPDError(
            f"non-positive curvature: smallest pivot {pivots[j]:.3e} at index {index}"
        )
    return handle.solve(b, tol=tol)
