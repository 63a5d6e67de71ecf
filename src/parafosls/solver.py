"""Sparse direct solvers with a residual contract.

Both entry points factorize with SuperLU and polish the solution with
iterative refinement until the requested relative residual is met;
symmetric positive definite systems are factorized in SuperLU's
symmetric mode.
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
    """The operator exposed non-positive curvature on a solve."""


@dataclass
class SolveReport:
    """Solution vector plus the achieved relative residual.

    ``iterations`` counts refinement sweeps (0 when the factorization
    alone met the tolerance); ``method`` names the algorithm.
    """

    solution: np.ndarray
    relative_residual: float
    iterations: int
    method: str


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
            return SolveReport(x, 0.0, 0, "sparse-lu")
        best = np.inf
        for sweep in range(_MAX_REFINEMENTS + 1):
            residual = b - self.matrix @ x
            rel = np.linalg.norm(residual) / norm_b
            best = min(best, rel)
            if rel <= tol:
                return SolveReport(x, rel, sweep, "sparse-lu")
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


def factorize_reusable(matrix):
    """Factorize once; reuse the handle for many right-hand sides."""
    return FactorHandle(matrix)


def apply(handle, b, tol=DEFAULT_TOL):
    """Solve with a previously computed factorization."""
    return handle.solve(b, tol=tol).solution


def solve_general(matrix, b, tol=DEFAULT_TOL):
    """Solve a nonsingular (possibly non-symmetric) sparse system."""
    return FactorHandle(matrix).solve(b, tol=tol)


def solve_spd(matrix, b, tol=DEFAULT_TOL):
    """Solve a symmetric positive definite sparse system.

    Positive definiteness is the caller's responsibility; as a cheap
    guard the curvature of the computed solution is probed and a
    non-positive value raises NotSPDError.
    """
    handle = SPDFactorHandle(matrix)
    report = handle.solve(b, tol=tol)
    x = report.solution
    xnorm = np.linalg.norm(x)
    if xnorm > 0.0:
        curvature = float(x @ (handle.matrix @ x))
        if curvature <= 0.0:
            raise NotSPDError(
                f"negative curvature detected: x'Mx = {curvature:.3e}"
            )
    return report
