import re

import numpy as np
import pytest

from parafosls.analysis import decaying_sine_problem, field_error_norms
from parafosls.checks import conformity_jumps
from parafosls.evolution import (
    SeparableSource,
    TimePartition,
    backward_euler_run,
    check_stability_bound,
    galerkin_be_reference,
    l2_project_initial,
)
from parafosls.forms import (
    CoefficientError,
    Coefficients,
    FormAssembler,
    assemble_p1_load,
    assemble_p1_mass,
    assemble_p1_stiffness,
)
from parafosls.projection import elliptic_project
from parafosls.spaces import (
    build_dof_map,
    eval_fields_on_triangle,
    eval_local_basis,
    p1_vertex_values,
    rt0_edge_values,
)

from oracles import eval_discrete_function


def test_dof_counts_level0(mesh_chain, dofmaps):
    dm = dofmaps[0]
    assert dm.n_u == 1  # only the center vertex is interior
    assert dm.n_sigma == 8
    assert dm.total == 9


def test_dof_counts_level1(dofmaps):
    dm = dofmaps[1]
    assert dm.n_u == 5
    assert dm.n_sigma == 28
    assert dm.total == 33


def test_dof_indices_are_a_bijection(mesh_chain, dofmaps):
    for m, dm in zip(mesh_chain[:4], dofmaps[:4]):
        local_dofs = FormAssembler(m, dm, HEAT, "primary").local_dofs
        assert local_dofs.dtype == np.int64
        assert set(local_dofs[local_dofs >= 0]) == set(range(dm.total))
        assert set(dm.u_dof_of_vertex[dm.u_dof_of_vertex >= 0]) == set(range(dm.n_u))
        assert np.all(dm.u_dof_of_vertex[m.boundary_vertex] == -1)
        assert np.all(dm.u_dof_of_vertex[~m.boundary_vertex] >= 0)


def test_p1_lagrange_property(mesh_chain):
    m = mesh_chain[1]
    for local, lam in enumerate(np.eye(3)):
        basis = eval_local_basis(m, 5, lam)
        assert np.allclose(basis.p1_values, lam)


def test_p1_gradients_sum_to_zero(mesh_chain):
    m = mesh_chain[2]
    basis = eval_local_basis(m, 7, (0.2, 0.5, 0.3))
    assert np.allclose(basis.p1_gradients.sum(axis=0), 0.0)


def test_partition_of_unity(mesh_chain, rng):
    m = mesh_chain[2]
    for _ in range(10):
        lam = rng.dirichlet(np.ones(3))
        basis = eval_local_basis(m, int(rng.integers(m.num_triangles)), lam)
        assert np.isclose(basis.p1_values.sum(), 1.0)


def test_rt0_divergence_theorem(mesh_chain):
    """Integral of div phi_i over the element equals the boundary flux s_i |e_i|."""
    m = mesh_chain[1]
    areas = m.geometry.areas
    for t in range(m.num_triangles):
        p = m.vertices[m.triangles[t]]
        basis = eval_local_basis(m, t, (1 / 3, 1 / 3, 1 / 3))
        for i in range(3):
            a, b = p[(i + 1) % 3], p[(i + 2) % 3]
            edge_len = np.linalg.norm(b - a)
            sign = m.triangle_edge_signs[t, i]
            assert np.isclose(basis.rt0_divergences[i] * areas[t], sign * edge_len)

            # outward-normal trace along each edge of the triangle
            for j in range(3):
                a_j, b_j = p[(j + 1) % 3], p[(j + 2) % 3]
                direction = (b_j - a_j) / np.linalg.norm(b_j - a_j)
                outward = np.array([direction[1], -direction[0]])
                lam = np.full(3, 0.5)
                lam[j] = 0.0
                at_mid = eval_local_basis(m, t, lam).rt0_values[i]
                trace = at_mid @ outward
                assert np.isclose(trace, sign if i == j else 0.0, atol=1e-13)


def test_normal_trace_constant_along_edge(mesh_chain, rng):
    m = mesh_chain[1]
    t = 3
    p = m.vertices[m.triangles[t]]
    i = 1
    a, b = p[(i + 1) % 3], p[(i + 2) % 3]
    direction = (b - a) / np.linalg.norm(b - a)
    outward = np.array([direction[1], -direction[0]])
    traces = []
    for s in rng.uniform(0.05, 0.95, size=5):
        lam = np.zeros(3)
        lam[(i + 1) % 3] = 1.0 - s
        lam[(i + 2) % 3] = s
        traces.append(eval_local_basis(m, t, lam).rt0_values[i] @ outward)
    assert np.allclose(traces, traces[0])


def test_degenerate_triangle_rejected(mesh_chain):
    import dataclasses

    m = mesh_chain[0]
    flat = dataclasses.replace(
        m, vertices=m.vertices.copy()
    )
    flat.vertices[4] = flat.vertices[0]  # collapse the center onto a corner
    with pytest.raises(ValueError, match="degenerate"):
        eval_local_basis(flat, 3, (1 / 3, 1 / 3, 1 / 3))


def test_eval_discrete_function_zero(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    u, grad, sigma, div = eval_discrete_function(
        np.zeros(dm.n_u), np.zeros(dm.n_sigma), m, dm, (0.3, 0.4)
    )
    assert u == 0.0 and div == 0.0
    assert np.allclose(grad, 0.0) and np.allclose(sigma, 0.0)


def test_eval_discrete_function_lagrange(mesh_chain, dofmaps):
    m, dm = mesh_chain[0], dofmaps[0]
    u, _, _, _ = eval_discrete_function(np.array([0.7]), np.zeros(dm.n_sigma), m, dm, (0.5, 0.5))
    assert np.isclose(u, 0.7)


def test_single_rt0_dof_divergence(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    # pick an interior edge and set its dof to one
    interior_edges = np.flatnonzero(~m.boundary_edge)
    e = int(interior_edges[0])
    sigma = np.zeros(dm.n_sigma)
    sigma[e] = 1.0
    incident = [
        (t, i)
        for t in range(m.num_triangles)
        for i in range(3)
        if m.triangle_edges[t, i] == e
    ]
    assert len(incident) == 2
    edge_len = np.linalg.norm(
        m.vertices[m.edges[e, 1]] - m.vertices[m.edges[e, 0]]
    )
    divs = []
    for t, i in incident:
        _, _, _, div = eval_fields_on_triangle(
            np.zeros(dm.n_u), sigma, m, dm, t, (1 / 3, 1 / 3, 1 / 3)
        )
        area = m.geometry.areas[t]
        assert np.isclose(abs(div), edge_len / area)
        divs.append(div)
    assert np.isclose(divs[0], -divs[1])  # opposite orientation signs


def test_u_vanishes_at_boundary_vertices(mesh_chain, dofmaps, rng):
    m, dm = mesh_chain[2], dofmaps[2]
    u_coeffs = rng.standard_normal(dm.n_u)
    for v in np.flatnonzero(m.boundary_vertex)[:6]:
        u, _, _, _ = eval_discrete_function(u_coeffs, np.zeros(dm.n_sigma), m, dm, m.vertices[v])
        assert abs(u) <= 1e-13


def test_conformity_of_both_spaces(mesh_chain, dofmaps):
    jump_u, jump_flux = conformity_jumps(mesh_chain[2], dofmaps[2], seed=3)
    assert jump_u <= 1e-12
    assert jump_flux <= 1e-12


PROBLEM = decaying_sine_problem("primary")
EXACT = dict(zip(("u", "grad_u", "sigma", "div_sigma"), PROBLEM.fields_at(0.1)))
COMPONENTS = {"u": (), "grad_u": (2,), "sigma": (2,), "div_sigma": ()}
PARTITION = TimePartition.uniform(0.1, 2)
HEAT = Coefficients.constant()


def _bad_field(kind, components):
    """A vectorized field that returns a wrong shape, or NaN at its last point."""

    def fn(x, y):
        if kind == "shape":
            return np.ones((3,) + np.shape(x))
        out = np.ones(components + np.shape(x))
        out.reshape(components + (-1,))[..., -1] = np.nan
        return out

    return fn


def _in_time(fn):
    return lambda t, x, y: fn(x, y)


def _exact_with(name, fn):
    return [fn if field == name else EXACT[field] for field in EXACT]


def _zero_trajectory(dm):
    return np.zeros((len(PARTITION.steps) + 1, dm.n_u))


def _with_coefficient(name, fn):
    fields = {"A": HEAT.A, "beta": HEAT.beta, "div_beta": HEAT.div_beta, "gamma": HEAT.gamma}
    fields[name] = fn
    return Coefficients(**fields)


# (entry point, field it names, the field's components, the kinds of fault
# whose message the package did not name before, call(mesh, dofmap, field))
FIELD_SITES = [
    ("l2_project_initial", "u0", (), ("shape", "nan"),
     lambda m, dm, fn: l2_project_initial(fn, m, dm)),
    ("galerkin_be_reference", "source f", (), ("shape", "nan"),
     lambda m, dm, fn: galerkin_be_reference(_in_time(fn), PARTITION, m, dm)),
    ("check_stability_bound", "source f", (), ("shape", "nan"),
     lambda m, dm, fn: check_stability_bound(_zero_trajectory(dm), _in_time(fn), PARTITION, m, dm)),
    ("separable run", "source f", (), ("nan",),
     lambda m, dm, fn: backward_euler_run(
         SeparableSource(lambda t: 1.0, fn), PARTITION, m, dm, coeffs=HEAT, variant="primary")),
    ("load_vector", "source f", (), ("nan",),
     lambda m, dm, fn: FormAssembler(m, dm, HEAT, "primary").load_vector(
         0.1, f=fn, w=np.zeros(dm.n_u))),
    ("source_load", "source f", (), ("shape", "nan"),
     lambda m, dm, fn: FormAssembler(m, dm, HEAT, "primary").source_load(0.1, fn)),
    ("lsq_functional", "data g", (), ("nan",),
     lambda m, dm, fn: FormAssembler(m, dm, HEAT, "primary").lsq_functional(
         0.1, np.zeros(dm.n_u), np.zeros(dm.n_sigma), g=fn, w=np.zeros(dm.n_u))),
]
for _name in EXACT:
    FIELD_SITES += [
        (f"elliptic_project {_name}", _name, COMPONENTS[_name], ("shape", "nan"),
         lambda m, dm, fn, name=_name: elliptic_project(
             *_exact_with(name, fn), m, dm, PROBLEM.coeffs, 0.1, "primary")),
        (f"field_error_norms {_name}", _name, COMPONENTS[_name], ("shape", "nan"),
         lambda m, dm, fn, name=_name: field_error_norms(
             *_exact_with(name, fn), np.zeros(dm.n_u), np.zeros(dm.n_sigma), m, dm)),
    ]
for _name, _components in (("A", (2, 2)), ("beta", (2,)), ("div_beta", ()), ("gamma", ())):
    FIELD_SITES.append(
        (f"coefficient {_name}", f"coefficient {_name}", _components, ("shape",),
         lambda m, dm, fn, name=_name: FormAssembler(
             m, dm, _with_coefficient(name, fn), "primary").total_matrix(0.1)))


@pytest.mark.parametrize(
    "field, components, kind, call",
    [
        pytest.param(field, components, kind, call, id=f"{entry}-{kind}")
        for entry, field, components, kinds, call in FIELD_SITES
        for kind in kinds
    ],
)
def test_malformed_field_is_named(mesh_chain, dofmaps, field, components, kind, call):
    """Every caller-supplied field fails where it is evaluated, with a
    message that starts with the field's name, before any solve."""
    expected = CoefficientError if field.startswith("coefficient") else ValueError
    fault = "returned an array of shape" if kind == "shape" else r"is not finite at point \("
    with pytest.raises(expected, match="^" + re.escape(field) + " " + fault) as info:
        call(mesh_chain[1], dofmaps[1], _bad_field(kind, components))
    assert info.type is expected


# entry point -> call(mesh, dofmap, vectors) with the vectors u_coeffs,
# sigma_coeffs and w (a previous iterate) that it takes
VECTOR_ENTRIES = {
    "field_error_norms": lambda m, dm, v: field_error_norms(
        *EXACT.values(), v["u_coeffs"], v["sigma_coeffs"], m, dm),
    "lsq_functional": lambda m, dm, v: FormAssembler(m, dm, HEAT, "primary").lsq_functional(
        0.1, v["u_coeffs"], v["sigma_coeffs"], g=_zero_field, w=v["w"]),
    "load_vector": lambda m, dm, v: FormAssembler(m, dm, HEAT, "primary").load_vector(
        0.1, w=v["w"]),
    "eval_fields_on_triangle": lambda m, dm, v: eval_fields_on_triangle(
        v["u_coeffs"], v["sigma_coeffs"], m, dm, 0, (0.2, 0.3, 0.5)),
    "eval_discrete_function": lambda m, dm, v: eval_discrete_function(
        v["u_coeffs"], v["sigma_coeffs"], m, dm, (0.3, 0.4)),
}
VECTOR_SITES = [
    ("field_error_norms", "u_coeffs"),
    ("field_error_norms", "sigma_coeffs"),
    ("lsq_functional", "u_coeffs"),
    ("lsq_functional", "sigma_coeffs"),
    ("lsq_functional", "w"),
    ("load_vector", "w"),
    ("eval_fields_on_triangle", "u_coeffs"),
    ("eval_fields_on_triangle", "sigma_coeffs"),
    ("eval_discrete_function", "u_coeffs"),
    ("eval_discrete_function", "sigma_coeffs"),
]


def _vectors(dm):
    return dict(u_coeffs=np.zeros(dm.n_u), sigma_coeffs=np.zeros(dm.n_sigma), w=np.zeros(dm.n_u))


@pytest.mark.parametrize("entry, name", VECTOR_SITES)
def test_coefficient_vector_of_wrong_length_is_named(mesh_chain, dofmaps, entry, name):
    """None is a vector of shape (): no vector is read as zero when left out."""
    m, dm = mesh_chain[1], dofmaps[1]
    vectors = _vectors(dm)
    size = vectors[name].size
    for bad, shape in ((np.zeros(size + 1), f"({size + 1},)"), (None, "()")):
        vectors[name] = bad
        message = f"^{name} must have length {size}, got shape {re.escape(shape)}$"
        with pytest.raises(ValueError, match=message):
            VECTOR_ENTRIES[entry](m, dm, vectors)


@pytest.mark.parametrize("entry, name", VECTOR_SITES)
def test_coefficient_vector_not_finite_is_named(mesh_chain, dofmaps, entry, name):
    m, dm = mesh_chain[1], dofmaps[1]
    vectors = _vectors(dm)
    vectors[name][-1] = np.inf
    index = vectors[name].size - 1
    with pytest.raises(ValueError, match=f"^{name} is not finite at entry {index}: value inf"):
        VECTOR_ENTRIES[entry](m, dm, vectors)


def _zero_field(x, y):
    return np.zeros(np.broadcast(x, y).shape)


# entry point -> call(mesh, dofmap), with vectors sized by the dofmap
PAIR_ENTRIES = {
    "FormAssembler": lambda m, dm: FormAssembler(m, dm, HEAT, "primary"),
    "assemble_p1_mass": assemble_p1_mass,
    "assemble_p1_stiffness": assemble_p1_stiffness,
    "assemble_p1_load": lambda m, dm: assemble_p1_load(m, dm, _zero_field, "u0"),
    "p1_vertex_values": lambda m, dm: p1_vertex_values(np.zeros(dm.n_u), m, dm, "u_coeffs"),
    "rt0_edge_values": lambda m, dm: rt0_edge_values(np.zeros(dm.n_sigma), m, dm, "sigma_coeffs"),
    "eval_fields_on_triangle": lambda m, dm: eval_fields_on_triangle(
        np.zeros(dm.n_u), np.zeros(dm.n_sigma), m, dm, 0, (0.2, 0.3, 0.5)),
    "field_error_norms": lambda m, dm: field_error_norms(
        *EXACT.values(), np.zeros(dm.n_u), np.zeros(dm.n_sigma), m, dm),
    "l2_project_initial": lambda m, dm: l2_project_initial(_zero_field, m, dm),
    "elliptic_project": lambda m, dm: elliptic_project(
        *EXACT.values(), m, dm, PROBLEM.coeffs, 0.1, "primary"),
    "backward_euler_run": lambda m, dm: backward_euler_run(
        PROBLEM.f, PARTITION, m, dm, PROBLEM.coeffs, PROBLEM.variant),
}


@pytest.mark.parametrize(
    "mesh_level, dofmap_level", [(1, 2), (2, 1)], ids=["finer-map", "coarser-map"]
)
@pytest.mark.parametrize("entry", PAIR_ENTRIES)
def test_dofmap_of_another_mesh_is_named(mesh_chain, dofmaps, entry, mesh_level, dofmap_level):
    """A dofmap built for another mesh fails where the pair enters,
    instead of gathering or scattering wrong entries."""
    m, dm = mesh_chain[mesh_level], dofmaps[dofmap_level]
    other = mesh_chain[dofmap_level]
    message = (
        f"^dofmap does not match the mesh: it numbers {other.num_vertices} vertices and "
        f"{other.num_edges} edges, the mesh has {m.num_vertices} and {m.num_edges}$"
    )
    with pytest.raises(ValueError, match=message):
        PAIR_ENTRIES[entry](m, dm)
