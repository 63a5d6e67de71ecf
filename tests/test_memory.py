"""Deterministic guards on the traced memory peaks of four level-5 calls.

tracemalloc counts every NumPy array allocation, so these ratios repeat
exactly, unlike a process's peak resident set size. Each bound sits
between the reading of the whole-array forms these calls replaced and
the reading of the current code (level 5, 4096 elements):

- ``_load_operators``: peak over the memory it keeps, 3.33 before,
  1.93 with a whole-mesh table of weighted test functions, 1.83 once
  each block wrote its own entries, and 1.35 (6.2 MB over 4.6 MB) now
  that ``to_tests`` is stored in CSC form, its rows are written after
  the ``from_u`` scatter and each block's tables are freed before the
  next block's are built;
- ``field_error_norms``: peak in (nE, nQ) float arrays of the data
  rule, 23.9 before and 12.0 now;
- ``nonsymmetric_matrix``: peak in (6, 6, nE) float arrays of element
  matrices, 6.68 (7.87 MB) while a block's tables stayed alive during
  the build of the next block's, and 5.03 (5.93 MB) now that each form
  frees them first;
- ``extended_residual``: peak in long doubles per stored entry of the
  matrix, 2.14 before and 1.64 now.
"""

import tracemalloc

import numpy as np

from parafosls.analysis import decaying_sine_problem, field_error_norms
from parafosls.forms import DATA_DEGREE, FormAssembler
from parafosls.quadrature import triangle_rule
from parafosls.solver import extended_residual

LOAD_PEAK_OVER_KEPT = 1.5
ERROR_NORM_ARRAYS = 16.0
MATRIX_PEAK_OVER_ELEMENT_MATRICES = 5.8
RESIDUAL_LONG_DOUBLES_PER_ENTRY = 1.9


def _traced(call):
    """(peak, kept) bytes that call allocates, from the memory traced before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - before, after - before


def test_level5_peaks_stay_below_the_whole_array_forms(mesh_chain, dofmaps, rng):
    m, dm = mesh_chain[5], dofmaps[5]
    problem = decaying_sine_problem("alternative")
    m.geometry  # cached on the mesh: built outside the traced calls
    asm = FormAssembler(m, dm, problem.coeffs, problem.variant)

    peak, kept = _traced(lambda: asm._load_operators(0.01))
    assert peak <= LOAD_PEAK_OVER_KEPT * kept

    fields = problem.fields_at(0.1)
    u, sigma = rng.standard_normal(dm.n_u), rng.standard_normal(dm.n_sigma)
    peak, _ = _traced(lambda: field_error_norms(*fields, u, sigma, m, dm))
    n_q = triangle_rule(DATA_DEGREE).weights.size
    assert peak <= ERROR_NORM_ARRAYS * m.num_triangles * n_q * 8

    peak, _ = _traced(lambda: asm.nonsymmetric_matrix(0.01))
    assert peak <= MATRIX_PEAK_OVER_ELEMENT_MATRICES * m.num_triangles * 36 * 8

    matrix = asm.nonsymmetric_matrix(0.01)
    x, b = rng.standard_normal(dm.total), rng.standard_normal(dm.total)
    peak, _ = _traced(lambda: extended_residual(matrix, x, b))
    long_double = np.dtype(np.longdouble).itemsize
    assert peak <= RESIDUAL_LONG_DOUBLES_PER_ENTRY * matrix.nnz * long_double
