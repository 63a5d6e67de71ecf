"""Sparse direct solvers with a residual contract.

A FactorHandle factorizes a symmetric positive definite operator with
SuperLU in symmetric mode and polishes each solution with iterative
refinement until the requested relative residual is met; solve_spd
factorizes and solves once. A CoerciveFactorHandle factorizes an
operator whose symmetric part is positive definite the same way, and
its solves end with one refinement sweep on a residual accumulated in
extended precision. Both certify their pivots on request. Direct solves
are deterministic, so identical inputs give bitwise identical outputs,
and one factorization can be reused across the many right-hand sides of
a constant-step time loop.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_TOL = 1e-10
_MAX_REFINEMENTS = 2  # double-precision sweeps; no returned solve has needed more than one
ROW_BLOCK = 4096  # rows per block of extended_residual's long-double products
# SuperLU's symmetric mode: minimum degree order on the pattern of A' + A,
# pivots taken from the diagonal
_SYMMETRIC_MODE = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    options=dict(SymmetricMode=True),
)


class SolverError(RuntimeError):
    """Factorization failed or the residual contract could not be met."""


class NotSPDError(SolverError):
    """The operator is not symmetric positive definite."""


class NotCoerciveError(SolverError):
    """The symmetric part of the operator is not positive definite."""


@dataclass
class SolveReport:
    """Solution vector plus the achieved relative residual.

    ``iterations`` counts refinement sweeps (0 when the factorization
    alone met the tolerance), the extended-precision sweep of a
    CoerciveFactorHandle included when its solution is returned.
    """

    solution: np.ndarray
    relative_residual: float
    iterations: int


class FactorHandle:
    """Reusable factorization of a symmetric positive definite operator.

    SuperLU runs in symmetric mode: minimum degree ordering on the
    structure of A' + A and pivots taken from the diagonal. This keeps
    the symmetric sparsity pattern; on the least-squares forms it leaves
    less than half the fill of the default column ordering. The pivots
    are those of an LDL' factorization of the symmetrically permuted
    matrix, all positive exactly when the matrix is positive definite;
    ``certify_pivots`` checks this. Solves refine in double precision,
    at most two sweeps; the residual contract of ``solve`` guards the
    result.

    The handle keeps the operator in CSR form for the residuals; SuperLU
    gets a CSC copy, which the handle does not keep. A matrix that is
    not square, or has a NaN or infinite entry, raises ValueError before
    any factorization.
    """

    _EXTENDED_SWEEP = False
    _PIVOT_ERROR = NotSPDError, "non-positive curvature"

    def __init__(self, matrix):
        matrix = sp.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got {matrix.shape}")
        bad = matrix.nnz - np.count_nonzero(np.isfinite(matrix.data))
        if bad:
            raise ValueError(
                f"matrix is not finite: {bad} of {matrix.nnz} stored entries are NaN or infinite"
            )
        self.matrix = matrix
        try:
            self.lu = spla.splu(matrix.tocsc(), **_SYMMETRIC_MODE)
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
                report = SolveReport(x, rel, sweep)
                if self._EXTENDED_SWEEP:
                    return self._extended_sweep(b, report, norm_b, tol)
                return report
            x = x + self.lu.solve(residual)
        raise SolverError(
            f"residual {best:.3e} above tolerance {tol:.3e} "
            f"after {_MAX_REFINEMENTS} refinement sweeps"
        )

    def _extended_sweep(self, b, report, norm_b, tol):
        """One more sweep, on the residual b - Ax accumulated in long double.

        ``report`` already meets the contract. The swept solution is
        returned, with the sweep counted and its double-precision
        residual, when that residual meets tol as well. Near roundoff it
        can read above tol; ``report`` is then returned as it is.
        """
        residual = extended_residual(self.matrix, report.solution, b)
        x = report.solution + self.lu.solve(residual.astype(float))
        rel = np.linalg.norm(b - self.matrix @ x) / norm_b
        if rel <= tol:
            return SolveReport(x, rel, report.iterations + 1)
        return report

    def certify_pivots(self):
        """Raise unless the factorization pivoted on the diagonal with
        positive pivots.

        The row and column permutations must agree, and the smallest
        diagonal entry of U, whose unknown the error names, must be
        positive.

        Reading ``lu.U`` makes SuperLU build CSC copies of both L and U,
        which it caches for the life of the handle: 34 MB of arrays for
        the level-6 projection matrix (L and U hold 1.42 M entries
        each), held next to the factor itself.
        """
        error, what = self._PIVOT_ERROR
        lu = self.lu
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise error(f"{what}: symmetric-mode pivoting left the diagonal")
        pivots = lu.U.diagonal()
        j = int(np.argmin(pivots))
        if not pivots[j] > 0.0:
            # pivot j belongs to the unknown that the ordering moved to slot j
            index = int(np.flatnonzero(lu.perm_c == j)[0])
            raise error(f"{what}: smallest pivot {pivots[j]:.3e} at index {index}")


def extended_residual(matrix, x, b):
    """b - matrix @ x accumulated in long double, for a CSR matrix.

    Every product and every row sum is formed in ``np.longdouble``
    (80-bit extended precision on x86), in the order the entries are
    stored, so the digits that cancellation wipes out of a
    double-precision residual survive. Returns a long double array.

    The products are formed for ROW_BLOCK rows at a time. Each row is
    summed as one segment, as over the whole matrix at once, so the
    blocks change no bit and only a block's products are held.
    """
    matrix = sp.csr_matrix(matrix)
    x = np.asarray(x, np.longdouble)
    indptr, n_rows = matrix.indptr, matrix.shape[0]
    sums = np.zeros(n_rows, dtype=np.longdouble)
    for start in range(0, n_rows, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n_rows)
        lo, hi = indptr[start], indptr[stop]
        products = matrix.data[lo:hi].astype(np.longdouble) * x[matrix.indices[lo:hi]]
        # reduceat cannot sum an empty row
        rows = start + np.flatnonzero(np.diff(indptr[start : stop + 1]))
        sums[rows] = np.add.reduceat(products, indptr[rows] - lo)
    return np.asarray(b, np.longdouble) - sums


class CoerciveFactorHandle(FactorHandle):
    """Reusable factorization of an operator whose symmetric part is
    positive definite.

    It shares the symmetric-mode factorization: diagonal pivots are safe
    because every Schur complement of a coercive matrix is coercive
    again, so each pivot is positive, which ``certify_pivots`` checks.
    Once a solve meets the residual contract it takes one more
    refinement sweep on a residual accumulated in long double
    (``extended_residual``), which removes the error that a
    double-precision residual leaves in the solution. When the tolerance
    is near roundoff, the double-precision residual of the swept
    solution can read above it; the solve then returns the solution
    that met it.
    """

    _EXTENDED_SWEEP = True
    _PIVOT_ERROR = NotCoerciveError, "not coercive"


def solve_spd(matrix, b, tol=DEFAULT_TOL):
    """Solve a symmetric positive definite sparse system.

    Symmetry is the caller's responsibility; positive definiteness is
    certified from the pivots before the solve, and NotSPDError is
    raised otherwise.
    """
    handle = FactorHandle(matrix)
    handle.certify_pivots()
    return handle.solve(b, tol=tol)
