"""SHA-256 digests of the meshes, the assembled forms, the study states and the projections.

Prints one line ``<sha256>  <name>`` per array, so the output of two
checkouts can be compared with ``diff``; equal digests mean bitwise-equal
arrays. The package is imported from the ``src`` directory next to this
script's directory. Run from anywhere:

    python3 tools/form_digests.py [--levels 3] > digests.txt

Covered:
  - every array of the meshes of levels 0-7: vertices, triangles,
    edges, triangle_edges, triangle_edge_signs and both boundary masks,
    so the edge and sigma-DOF numbering is pinned as well;

and, for both splittings:
  - at each of ``--levels``, problem and variable coefficients and
    k in {1e-6, 1e-3, 0.1}: the total, non-symmetric and natural-norm
    matrices, the load vector (plain and separable source, each with a
    vector w; the separable one built as the time loop builds it), the
    functional value, the field load of the elliptic projection, and
    both sparse load operators;
  - the convergence studies (primary with the h2 coupling, alternative
    with the h coupling): at levels 0-3, every row of the scalar
    trajectory (line "state n u"), the final flux (line "state N sigma")
    and the five final-time error quantities;
  - elliptic projections at levels 2-4 for the same three k, with the
    five error quantities of each.
"""

import argparse
import hashlib
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from parafosls import driver  # noqa: E402
from parafosls.analysis import (  # noqa: E402
    ERROR_QUANTITIES,
    decaying_sine_problem,
    field_error_norms,
)
from parafosls.forms import Coefficients, FormAssembler, ProblemVariant  # noqa: E402
from parafosls.projection import elliptic_project  # noqa: E402
from parafosls.spaces import build_dof_map  # noqa: E402

STEPS = (1e-6, 1e-3, 0.1)
MESH_LEVELS = 7
MESH_ARRAYS = (
    "vertices", "triangles", "edges", "triangle_edges", "triangle_edge_signs",
    "boundary_vertex", "boundary_edge",
)
STUDY_LEVELS = 3
PROJECTION_LEVELS = (2, 3, 4)
PROJECTION_TIME = 0.1


def digest(value):
    """SHA-256 of an array, a float or a sparse matrix.

    A sparse matrix is digested in one canonical form, the (data,
    indices, indptr, shape) of its CSR form, so a change of storage
    format alone does not read as a change of bits. Integer and bool
    arrays are digested in their own dtype, everything else as float.
    """
    h = hashlib.sha256()
    if hasattr(value, "indptr"):
        value = value.tocsr()
        parts = (value.data, value.indices, value.indptr, np.asarray(value.shape))
    else:
        array = np.asarray(value)
        parts = (array if array.dtype.kind in "biu" else array.astype(float),)
    for part in parts:
        h.update(str(part.dtype).encode())
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def variable_coefficients():
    """Smooth admissible coefficients that vary in space."""

    def A(x, y):
        out = np.zeros((2, 2) + np.broadcast(x, y).shape)
        out[0, 0] = 2.0 + np.sin(x)
        out[1, 1] = 2.0 + np.cos(y)
        out[0, 1] = out[1, 0] = 0.25
        return out

    def beta(x, y):
        shape = np.broadcast(x, y).shape
        return np.stack([np.broadcast_to(y, shape), np.broadcast_to(x, shape)])

    def div_beta(x, y):
        return np.zeros(np.broadcast(x, y).shape)

    def gamma(x, y):
        return 1.0 + 0.5 * np.broadcast_to(x, np.broadcast(x, y).shape)

    return Coefficients(A=A, beta=beta, div_beta=div_beta, gamma=gamma)


def form_arrays(asm, problem, k):
    """(name, array) of every form of one assembler at step k."""
    dm = asm.dofmap
    rng = np.random.default_rng(7)
    u, sigma, w = (rng.standard_normal(n) for n in (dm.n_u, dm.n_sigma, dm.n_u))
    f = problem.f

    def source(x, y):
        return f(PROJECTION_TIME, x, y)

    def separable_load():
        """The load of the separable source as the time loop builds it."""
        load = asm.load_vector(k, w=w)
        load += float(f.theta(PROJECTION_TIME)) * asm.source_load(k, f.g)
        return load

    yield "total", asm.total_matrix(k)
    yield "nonsymmetric", asm.nonsymmetric_matrix(k)
    yield "gram", asm.natural_gram(k)
    yield "load plain f, vector w", asm.load_vector(k, f=source, w=w)
    yield "load separable f, vector w", separable_load()
    to_tests, from_u = asm._load_operators(k)
    yield "to_tests", to_tests
    yield "from_u", from_u
    yield "functional", asm.lsq_functional(k, u, sigma, g=source, w=w)
    fields = problem.fields_at(PROJECTION_TIME)
    yield "field load", asm.nonsymmetric_load_from_fields(k, *fields)


def mesh_digests():
    for mesh in driver.mesh_hierarchy(MESH_LEVELS):
        for name in MESH_ARRAYS:
            yield f"mesh level {mesh.level} {name}", getattr(mesh, name)


def forms_digests(levels):
    meshes = driver.mesh_hierarchy(max(levels))
    for level in levels:
        mesh = meshes[level]
        dofmap = build_dof_map(mesh)
        for variant in ProblemVariant:
            problem = decaying_sine_problem(variant)
            for c_name, coeffs in (("problem", problem.coeffs), ("variable", variable_coefficients())):
                asm = FormAssembler(mesh, dofmap, coeffs, variant)
                for k in STEPS:
                    for name, value in form_arrays(asm, problem, k):
                        yield f"forms level {level} {variant.value} {c_name} k={k:g} {name}", value


def study_digests():
    meshes = driver.mesh_hierarchy(STUDY_LEVELS)
    for variant, coupling in (("primary", "h2"), ("alternative", "h")):
        config = driver.ExperimentConfig(variant=variant, coupling=coupling)
        for level in range(STUDY_LEVELS + 1):
            report, u, sigma = driver.run_level(config, level, meshes[level])[:3]
            for n, row in enumerate(u):
                yield f"study {variant} {coupling} level {level} state {n} u", row
            yield f"study {variant} {coupling} level {level} state {len(u) - 1} sigma", sigma
            errors = [getattr(report, q) for q in ERROR_QUANTITIES]
            yield f"study {variant} {coupling} level {level} errors", errors


def projection_digests():
    meshes = driver.mesh_hierarchy(max(PROJECTION_LEVELS))
    for level in PROJECTION_LEVELS:
        mesh = meshes[level]
        dofmap = build_dof_map(mesh)
        for variant in ProblemVariant:
            problem = decaying_sine_problem(variant)
            fields = problem.fields_at(PROJECTION_TIME)
            for k in STEPS:
                result = elliptic_project(*fields, mesh, dofmap, problem.coeffs, k, variant)
                tag = f"projection level {level} {variant.value} k={k:g}"
                yield f"{tag} u", result.u_coeffs
                yield f"{tag} sigma", result.sigma_coeffs
                eu, eg, es, ed = field_error_norms(
                    *fields, result.u_coeffs, result.sigma_coeffs, mesh, dofmap
                )
                yield f"{tag} errors", [eu, eg, es, ed, math.sqrt(eg**2 + es**2 + k * ed**2)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--levels", default="3",
        help="comma-separated mesh levels of the form digests (default: 3)",
    )
    args = parser.parse_args(argv)
    levels = sorted({int(text) for text in args.levels.split(",")})
    for source in (mesh_digests(), forms_digests(levels), study_digests(), projection_digests()):
        for name, value in source:
            print(f"{digest(value)}  {name}", flush=True)


if __name__ == "__main__":
    main()
