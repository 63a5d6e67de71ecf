import re

import numpy as np
import pytest

from parafosls import forms, solver
from parafosls.analysis import decaying_sine_problem
from parafosls.evolution import (
    SeparableSource,
    TimePartition,
    backward_euler_run,
    check_stability_bound,
    galerkin_be_reference,
    l2_project_initial,
)
from parafosls.forms import Coefficients, assemble_p1_mass
from parafosls.quadrature import triangle_rule
from parafosls.spaces import eval_local_basis

HEAT = Coefficients.constant()


def u0_sine(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def test_partition_validation():
    with pytest.raises(ValueError):
        TimePartition(steps=np.array([0.1, -0.05]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"time step 2 = {bad} is not positive"):
            TimePartition([0.05, bad])
    with pytest.raises(ValueError, match="time step 1 = nan"):
        TimePartition.uniform(np.nan, 4)
    assert len(TimePartition.uniform(0.1, np.int64(4)).steps) == 4
    part = TimePartition([0.04, 0.03, 0.03])
    assert np.isclose(part.final_time, 0.1)
    assert np.array_equal(part.times, np.cumsum([0.0, 0.04, 0.03, 0.03]))


@pytest.mark.parametrize("num_steps", [2.5, 0, -1, True, "4", None])
def test_uniform_partition_names_a_bad_num_steps(num_steps):
    message = f"^num_steps must be a positive integer, got {re.escape(repr(num_steps))}$"
    with pytest.raises(ValueError, match=message):
        TimePartition.uniform(0.1, num_steps)


def test_steps_equal_up_to_roundoff_share_one_factorization(
    mesh_chain, dofmaps, monkeypatch
):
    part = TimePartition(steps=np.diff(np.linspace(0.0, 0.1, 65)))
    assert len(np.unique(part.steps)) > 1
    factorizations = []
    factorize = solver.FactorHandle.__init__

    def counting(handle, matrix):
        factorizations.append(matrix.shape)
        factorize(handle, matrix)

    monkeypatch.setattr(solver.FactorHandle, "__init__", counting)
    m, dm = mesh_chain[1], dofmaps[1]
    backward_euler_run(
        lambda t, x, y: np.ones(np.broadcast(x, y).shape),
        part, m, dm, coeffs=HEAT, variant="primary",
    )
    assert factorizations == [(dm.total, dm.total)]
    galerkin_be_reference(lambda t, x, y: np.ones(np.broadcast(x, y).shape), part, m, dm)
    assert factorizations[1:] == [(dm.n_u, dm.n_u)]


def test_nan_source_fails_fast_with_named_cause(mesh_chain, dofmaps):
    with pytest.raises(ValueError, match=r"source f is not finite at point \(.*\): value nan"):
        backward_euler_run(
            lambda t, x, y: np.full(np.broadcast(x, y).shape, np.nan),
            TimePartition.uniform(0.1, 2),
            mesh_chain[1],
            dofmaps[1],
            coeffs=HEAT,
            variant="primary",
        )


def test_run_returns_one_trajectory_block(mesh_chain, dofmaps, rng):
    """The scalar iterates fill one (N + 1, n_u) block that owns its
    memory; row 0 is a copy of the initial data."""
    dm = dofmaps[1]
    initial = rng.standard_normal(dm.n_u)
    u, _ = backward_euler_run(
        lambda t, x, y: np.ones(np.broadcast(x, y).shape),
        TimePartition.uniform(0.1, 3),
        mesh_chain[1],
        dm,
        coeffs=HEAT,
        variant="primary",
        initial=initial,
    )
    assert u.shape == (4, dm.n_u) and u.base is None
    assert np.array_equal(u[0], initial) and not np.shares_memory(u, initial)


def test_zero_data_gives_zero_trajectory(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    u, sigma = backward_euler_run(
        lambda t, x, y: np.zeros(np.broadcast(x, y).shape),
        TimePartition.uniform(0.1, 4),
        m,
        dm,
        coeffs=HEAT,
        variant="primary",
    )
    assert u.shape == (5, dm.n_u)
    assert np.allclose(u, 0.0)
    assert sigma.shape == (dm.n_sigma,)
    assert np.allclose(sigma, 0.0)


def independent_p1_inner_product(mesh, dofmap, fn, coeffs, degree=10):
    """<fn - u_h, phi_i> for all interior hats, by explicit loops."""
    rule = triangle_rule(degree)
    out = np.zeros(dofmap.n_u)
    areas = mesh.geometry.areas
    for t in range(mesh.num_triangles):
        p = mesh.vertices[mesh.triangles[t]]
        for lam, w in zip(rule.points, rule.weights):
            xq = lam @ p
            basis = eval_local_basis(mesh, t, lam)
            u_h = 0.0
            for i, v in enumerate(mesh.triangles[t]):
                dof = dofmap.u_dof_of_vertex[v]
                if dof >= 0:
                    u_h += coeffs[dof] * basis.p1_values[i]
            diff = float(fn(np.asarray(xq[0]), np.asarray(xq[1]))) - u_h
            for i, v in enumerate(mesh.triangles[t]):
                dof = dofmap.u_dof_of_vertex[v]
                if dof >= 0:
                    out[dof] += w * 2.0 * areas[t] * diff * basis.p1_values[i]
    return out


def test_initial_projection_orthogonality(mesh_chain, dofmaps):
    m, dm = mesh_chain[2], dofmaps[2]
    coeffs = l2_project_initial(u0_sine, m, dm)
    residuals = independent_p1_inner_product(m, dm, u0_sine, coeffs)
    # quadrature differences (degree 6 vs 10 on a transcendental
    # integrand) dominate the solver tolerance here
    assert np.abs(residuals).max() <= 1e-8


def test_initial_projection_zero():
    from parafosls.mesh import unit_square_initial_mesh
    from parafosls.spaces import build_dof_map

    m = unit_square_initial_mesh()
    dm = build_dof_map(m)
    assert np.allclose(l2_project_initial(lambda x, y: np.zeros_like(x), m, dm), 0.0)


def test_initial_projection_level0_ratio(mesh_chain, dofmaps):
    """One interior hat: the projection is <u0, phi> / <phi, phi>.

    The data integral is evaluated at the projection's own quadrature
    degree so only the assembly and solve paths are under test.
    """
    m, dm = mesh_chain[0], dofmaps[0]
    coeffs = l2_project_initial(u0_sine, m, dm)
    zero = np.zeros(1)
    load = independent_p1_inner_product(m, dm, u0_sine, zero, degree=6)
    mass_diag = -independent_p1_inner_product(
        m, dm, lambda x, y: np.zeros_like(x), np.ones(1), degree=4
    )
    assert np.isclose(coeffs[0], load[0] / mass_diag[0], rtol=1e-12)


def test_variable_step_run(mesh_chain, dofmaps, monkeypatch):
    """Each change of step makes one pass over the elements per rule:
    the matrix, then the load operators. Steps of one size make none."""
    m, dm = mesh_chain[1], dofmaps[1]
    problem = decaying_sine_problem("primary")
    part = TimePartition([0.04, 0.03, 0.03])
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    passes = []
    build = forms._RuleTables.__init__

    def counting(tables, asm, rule, block):
        if block.start == 0:
            passes.append(rule.exactness_degree)
        build(tables, asm, rule, block)

    monkeypatch.setattr(forms._RuleTables, "__init__", counting)
    u, _ = backward_euler_run(
        problem.f, part, m, dm, problem.coeffs, problem.variant, initial=initial
    )
    assert passes == [forms.MATRIX_DEGREE, forms.DATA_DEGREE] * 2
    assert u.shape == (4, dm.n_u)
    check_stability_bound(u, problem.f, part, m, dm)


def test_galerkin_single_dof_formula(mesh_chain, dofmaps):
    """Level 0 has one unknown: u1 = (m u0/k + load) / (m/k + K) with
    m = 1/6, K = 4 and load 1/3 for the constant source f = 1."""
    m, dm = mesh_chain[0], dofmaps[0]
    k = 0.1
    u0 = np.array([0.25])
    traj = galerkin_be_reference(
        lambda t, x, y: np.ones(np.broadcast(x, y).shape),
        TimePartition.uniform(k, 1),
        m,
        dm,
        initial=u0,
    )
    mass, stiff, load = 1.0 / 6.0, 4.0, 1.0 / 3.0
    expected = (mass / k * 0.25 + load) / (mass / k + stiff)
    assert np.isclose(traj[-1][0], expected, rtol=1e-12)


def test_galerkin_energy_decay(mesh_chain, dofmaps, rng):
    m, dm = mesh_chain[2], dofmaps[2]
    mass = assemble_p1_mass(m, dm)
    initial = rng.standard_normal(dm.n_u)
    traj = galerkin_be_reference(
        lambda t, x, y: np.zeros(np.broadcast(x, y).shape),
        TimePartition.uniform(0.1, 10),
        m,
        dm,
        initial=initial,
    )
    norms = [np.sqrt(c @ (mass @ c)) for c in traj]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms[:-1], norms[1:]))


def test_decoupled_run_matches_galerkin(mesh_chain, dofmaps):
    m, dm = mesh_chain[2], dofmaps[2]
    part = TimePartition.uniform(0.1, 8)

    def source(t, x, y):
        return (1.0 + 2.0 * t * np.pi**2) * np.sin(np.pi * x) * np.sin(np.pi * y)

    initial = l2_project_initial(u0_sine, m, dm)
    ls, _ = backward_euler_run(
        source, part, m, dm, coeffs=HEAT, variant="primary", initial=initial
    )
    galerkin = galerkin_be_reference(source, part, m, dm, initial=initial)
    assert galerkin.shape == ls.shape
    for s, g in zip(ls[1:], galerkin[1:]):
        assert np.abs(s - g).max() <= 1e-8 * np.abs(g).max()


def test_source_evaluated_at_new_time(mesh_chain, dofmaps):
    """One step of size k must see f(k), not f(0)."""
    m, dm = mesh_chain[1], dofmaps[1]
    k = 0.1
    part = TimePartition.uniform(k, 1)

    def time_ramp(t, x, y):
        return np.full(np.broadcast(x, y).shape, t)

    def frozen_at_k(t, x, y):
        return np.full(np.broadcast(x, y).shape, k)

    a, _ = backward_euler_run(time_ramp, part, m, dm, coeffs=HEAT, variant="primary")
    b, _ = backward_euler_run(frozen_at_k, part, m, dm, coeffs=HEAT, variant="primary")
    assert np.array_equal(a[-1], b[-1])
    assert np.abs(a[-1]).max() > 0.0


def test_sigma_storage_policy(mesh_chain, dofmaps, monkeypatch):
    """Only the final flux is kept, in an array of its own that does not
    pin the last step's whole solution."""
    m, dm = mesh_chain[1], dofmaps[1]
    problem = decaying_sine_problem("primary")
    solutions = []
    solve = solver.FactorHandle.solve

    def keeping(handle, *args, **kwargs):
        report = solve(handle, *args, **kwargs)
        solutions.append(report.solution)
        return report

    monkeypatch.setattr(solver.FactorHandle, "solve", keeping)
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    u, sigma = backward_euler_run(
        problem.f, TimePartition.uniform(0.1, 4), m, dm,
        problem.coeffs, problem.variant, initial=initial,
    )
    assert sigma.shape == (dm.n_sigma,) and sigma.base is None
    assert np.array_equal(sigma, solutions[-1][dm.n_u:])
    assert np.array_equal(u[-1], solutions[-1][: dm.n_u])


def test_initial_length_validated(mesh_chain, dofmaps):
    with pytest.raises(ValueError, match="length"):
        backward_euler_run(
            lambda t, x, y: np.zeros(np.broadcast(x, y).shape),
            TimePartition.uniform(0.1, 1),
            mesh_chain[1],
            dofmaps[1],
            coeffs=HEAT,
            variant="primary",
            initial=np.zeros(3),
        )


def _zero_source(t, x, y):
    return np.zeros(np.broadcast(x, y).shape)


# time loop -> call(mesh, dofmap, initial)
TIME_LOOPS = {
    "least-squares": lambda m, dm, initial: backward_euler_run(
        _zero_source, TimePartition.uniform(0.1, 2), m, dm,
        coeffs=HEAT, variant="primary", initial=initial,
    ),
    "galerkin": lambda m, dm, initial: galerkin_be_reference(
        _zero_source, TimePartition.uniform(0.1, 2), m, dm, initial=initial
    ),
}


@pytest.mark.parametrize("loop", TIME_LOOPS)
@pytest.mark.parametrize(
    "kind, message",
    [
        ("length", r"^initial must have length 5, got shape \(6,\)$"),
        ("nan", "^initial is not finite at entry 2: value nan$"),
    ],
)
def test_malformed_initial_is_named_before_any_step(
    mesh_chain, dofmaps, monkeypatch, loop, kind, message
):
    factorizations = []
    monkeypatch.setattr(
        solver.FactorHandle, "__init__", lambda handle, matrix: factorizations.append(matrix)
    )
    n_u = dofmaps[1].n_u
    initial = np.zeros(n_u + 1 if kind == "length" else n_u)
    if kind == "nan":
        initial[2] = np.nan
    with pytest.raises(ValueError, match=message):
        TIME_LOOPS[loop](mesh_chain[1], dofmaps[1], initial)
    assert factorizations == []


SEPARABLE_PARTITIONS = {
    "constant": TimePartition.uniform(0.1, 4),
    "variable": TimePartition([0.04, 0.03, 0.03]),
    "alternating": TimePartition([0.02, 0.03] * 4),
}


def relative_difference(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("variant", ["primary", "alternative"])
@pytest.mark.parametrize("partition", SEPARABLE_PARTITIONS.values(), ids=SEPARABLE_PARTITIONS)
def test_separable_source_matches_plain_callable(mesh_chain, dofmaps, variant, partition):
    """The cached source image gives the states of evaluating f at every
    step; a change of step must not reuse the image of the old step."""
    m, dm = mesh_chain[2], dofmaps[2]
    problem = decaying_sine_problem(variant)
    assert isinstance(problem.f, SeparableSource)
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    u, sigma = backward_euler_run(
        problem.f, partition, m, dm, problem.coeffs, variant, initial=initial
    )
    plain_u, plain_sigma = backward_euler_run(
        lambda t, x, y: problem.f(t, x, y), partition, m, dm,
        coeffs=problem.coeffs, variant=variant, initial=initial,
    )
    for a, b in zip(u[1:], plain_u[1:]):
        assert relative_difference(a, b) <= 1e-12
    assert relative_difference(sigma, plain_sigma) <= 1e-12


class CountingSource(SeparableSource):
    """A separable source whose (t, x, y) call must not happen."""

    def __call__(self, t, x, y):
        raise AssertionError("separable source evaluated as f(t, x, y)")


@pytest.mark.parametrize(
    "partition, evaluations",
    [(SEPARABLE_PARTITIONS["constant"], 1), (SEPARABLE_PARTITIONS["variable"], 2)],
    ids=["constant", "variable"],
)
def test_separable_field_evaluated_once_per_run_of_equal_steps(
    mesh_chain, dofmaps, partition, evaluations
):
    calls = []

    def g(x, y):
        calls.append(x.shape)
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    backward_euler_run(
        CountingSource(lambda t: np.exp(-t), g), partition, mesh_chain[1], dofmaps[1],
        coeffs=HEAT, variant="primary",
    )
    assert len(calls) == evaluations


def ones_field(x, y):
    return np.ones(np.broadcast(x, y).shape)


def nan_after(time):
    """A theta that is 1 up to the given time and NaN after it."""
    return lambda t: np.nan if t > time else 1.0


def test_separable_nan_theta_fails_fast_with_named_cause(mesh_chain, dofmaps, monkeypatch):
    solves = []
    solve = solver.FactorHandle.solve

    def counting(handle, *args, **kwargs):
        solves.append(handle)
        return solve(handle, *args, **kwargs)

    monkeypatch.setattr(solver.FactorHandle, "solve", counting)
    source = SeparableSource(nan_after(0.06), ones_field)
    with pytest.raises(ValueError, match="^source theta is not finite at t = 0.1: value nan$"):
        backward_euler_run(
            source, TimePartition.uniform(0.1, 2), mesh_chain[1], dofmaps[1],
            coeffs=HEAT, variant="primary",
        )
    assert len(solves) == 1  # step 2 fails before its solve


def test_stability_bound_names_a_nan_theta(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    part = TimePartition.uniform(0.1, 2)
    u, _ = backward_euler_run(
        SeparableSource(lambda t: 1.0, ones_field), part, m, dm, coeffs=HEAT, variant="primary"
    )
    source = SeparableSource(nan_after(0.06), ones_field)
    with pytest.raises(ValueError, match="^source theta is not finite at t = 0.1: value nan$"):
        check_stability_bound(u, source, part, m, dm)


def test_separable_field_of_wrong_shape_is_named(mesh_chain, dofmaps):
    source = SeparableSource(lambda t: 1.0, lambda x, y: np.ones(3))
    with pytest.raises(ValueError, match="source f returned an array of shape"):
        backward_euler_run(
            source, TimePartition.uniform(0.1, 2), mesh_chain[1], dofmaps[1],
            coeffs=HEAT, variant="primary",
        )


@pytest.mark.parametrize("variant", ["primary", "alternative"])
def test_stability_bound_separable_matches_plain(mesh_chain, dofmaps, variant):
    m, dm = mesh_chain[2], dofmaps[2]
    problem = decaying_sine_problem(variant)
    part = SEPARABLE_PARTITIONS["variable"]
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    u, _ = backward_euler_run(problem.f, part, m, dm, problem.coeffs, variant, initial=initial)
    separable = check_stability_bound(u, problem.f, part, m, dm)
    plain = check_stability_bound(u, lambda t, x, y: problem.f(t, x, y), part, m, dm)
    for a, b in zip(separable, plain):
        assert relative_difference(a, b) <= 1e-12


def test_stability_bound_fails_on_nan_state(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    part = TimePartition.uniform(0.1, 3)

    def ones(t, x, y):
        return np.ones(np.broadcast(x, y).shape)

    u, _ = backward_euler_run(ones, part, m, dm, coeffs=HEAT, variant="primary")
    u[2, 0] = np.nan
    with pytest.raises(AssertionError, match="stability bound violated at step 2: nan"):
        check_stability_bound(u, ones, part, m, dm)


@pytest.mark.parametrize(
    "shape", [(2, 5), (9, 4), (9,), (1, 9, 5)], ids=["too-few-rows", "short-rows", "1d", "3d"]
)
def test_stability_bound_names_a_trajectory_of_the_wrong_shape(mesh_chain, dofmaps, shape):
    """Two rows against an 8-step partition used to broadcast silently."""
    m, dm = mesh_chain[1], dofmaps[1]
    assert dm.n_u == 5
    part = TimePartition.uniform(0.1, 8)
    message = rf"^u must have shape \(9, 5\), got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        check_stability_bound(np.zeros(shape), _zero_source, part, m, dm)


def _recording(method, name, calls):
    def record(self, *args, **kwargs):
        calls.append(name)
        return method(self, *args, **kwargs)

    return record


@pytest.mark.parametrize(
    "partition", [SEPARABLE_PARTITIONS["constant"], SEPARABLE_PARTITIONS["variable"]],
    ids=["constant", "variable"],
)
@pytest.mark.parametrize("separable", [True, False], ids=["separable", "plain"])
def test_each_step_is_one_load_then_one_solve(
    mesh_chain, dofmaps, monkeypatch, partition, separable
):
    """The call order that per-step timing pairs up: each step is one
    load_vector call followed by one solve; each factorization comes
    before the first load of its step size; a separable source's field is
    loaded once per run of equal steps, after that first load, and a
    plain source's never through source_load."""
    calls = []
    for cls, name in (
        (solver.FactorHandle, "__init__"),
        (forms.FormAssembler, "load_vector"),
        (forms.FormAssembler, "source_load"),
        (solver.FactorHandle, "solve"),
    ):
        monkeypatch.setattr(cls, name, _recording(getattr(cls, name), name, calls))
    source = SeparableSource(np.exp, u0_sine)
    if not separable:
        source = source.__call__  # the same values as a plain callable
    backward_euler_run(source, partition, mesh_chain[1], dofmaps[1], coeffs=HEAT, variant="primary")

    expected = []
    for n, k in enumerate(partition.steps):
        new_size = n == 0 or k != partition.steps[n - 1]
        expected += ["__init__"] if new_size else []
        expected += ["load_vector"]
        expected += ["source_load"] if separable and new_size else []
        expected += ["solve"]
    assert calls == expected
