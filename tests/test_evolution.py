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
    part = TimePartition([0.04, 0.03, 0.03])
    assert np.isclose(part.final_time, 0.1)
    assert np.array_equal(part.times, np.cumsum([0.0, 0.04, 0.03, 0.03]))


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


def test_states_do_not_pin_whole_solutions(mesh_chain, dofmaps):
    """Only the kept states hold flux coefficients: the scalar iterates
    share one block that holds nothing else."""
    states = backward_euler_run(
        lambda t, x, y: np.ones(np.broadcast(x, y).shape),
        TimePartition.uniform(0.1, 3),
        mesh_chain[1],
        dofmaps[1],
        coeffs=HEAT,
        variant="primary",
    )
    block = states[1].u_coeffs.base
    assert block.shape == (3, dofmaps[1].n_u)
    assert all(state.u_coeffs.base is block for state in states[1:])


def test_zero_data_gives_zero_trajectory(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    states = backward_euler_run(
        lambda t, x, y: np.zeros(np.broadcast(x, y).shape),
        TimePartition.uniform(0.1, 4),
        m,
        dm,
        coeffs=HEAT,
        variant="primary",
    )
    assert len(states) == 5
    for s in states:
        assert np.allclose(s.u_coeffs, 0.0)
    assert states[0].sigma_coeffs is None
    assert np.allclose(states[-1].sigma_coeffs, 0.0)


def independent_p1_inner_product(mesh, dofmap, fn, coeffs, degree=10):
    """<fn - u_h, phi_i> for all interior hats, by explicit loops."""
    rule = triangle_rule(degree)
    out = np.zeros(dofmap.n_u)
    areas = mesh.triangle_areas()
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
    states = backward_euler_run(problem, part, m, dm, initial=initial)
    assert passes == [forms.MATRIX_DEGREE, forms.DATA_DEGREE] * 2
    assert len(states) == 4
    assert np.isclose(states[-1].time, 0.1)
    check_stability_bound(states, problem.f, part, m, dm)


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
    ls = backward_euler_run(
        source, part, m, dm, coeffs=HEAT, variant="primary", initial=initial
    )
    galerkin = galerkin_be_reference(source, part, m, dm, initial=initial)
    for s, g in zip(ls[1:], galerkin[1:]):
        assert np.abs(s.u_coeffs - g).max() <= 1e-8 * np.abs(g).max()


def test_source_evaluated_at_new_time(mesh_chain, dofmaps):
    """One step of size k must see f(k), not f(0)."""
    m, dm = mesh_chain[1], dofmaps[1]
    k = 0.1
    part = TimePartition.uniform(k, 1)

    def time_ramp(t, x, y):
        return np.full(np.broadcast(x, y).shape, t)

    def frozen_at_k(t, x, y):
        return np.full(np.broadcast(x, y).shape, k)

    a = backward_euler_run(time_ramp, part, m, dm, coeffs=HEAT, variant="primary")
    b = backward_euler_run(frozen_at_k, part, m, dm, coeffs=HEAT, variant="primary")
    assert np.array_equal(a[-1].u_coeffs, b[-1].u_coeffs)
    assert np.abs(a[-1].u_coeffs).max() > 0.0


def test_sigma_storage_policy(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    problem = decaying_sine_problem("primary")
    initial = l2_project_initial(lambda x, y: problem.u(0.0, x, y), m, dm)
    states = backward_euler_run(
        problem, TimePartition.uniform(0.1, 4), m, dm, initial=initial
    )
    assert states[0].sigma_coeffs is None
    assert all(s.sigma_coeffs is None for s in states[1:-1])
    assert states[-1].sigma_coeffs is not None


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


@pytest.mark.parametrize("missing", ["coeffs", "variant"])
def test_plain_source_without_coeffs_or_variant_is_named(
    mesh_chain, dofmaps, monkeypatch, missing
):
    assemblers = []
    monkeypatch.setattr(forms.FormAssembler, "__init__", lambda *args: assemblers.append(args))
    given = {"coeffs": HEAT, "variant": "primary"}
    del given[missing]
    message = f"^{missing} is required: the problem given has no attribute '{missing}'$"
    with pytest.raises(ValueError, match=message):
        backward_euler_run(
            _zero_source, TimePartition.uniform(0.1, 1), mesh_chain[1], dofmaps[1], **given
        )
    assert assemblers == []


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
    separable = backward_euler_run(problem, partition, m, dm, initial=initial)
    plain = backward_euler_run(
        lambda t, x, y: problem.f(t, x, y), partition, m, dm,
        coeffs=problem.coeffs, variant=variant, initial=initial,
    )
    for a, b in zip(separable[1:], plain[1:]):
        assert relative_difference(a.u_coeffs, b.u_coeffs) <= 1e-12
    assert relative_difference(separable[-1].sigma_coeffs, plain[-1].sigma_coeffs) <= 1e-12


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
    states = backward_euler_run(
        SeparableSource(lambda t: 1.0, ones_field), part, m, dm, coeffs=HEAT, variant="primary"
    )
    source = SeparableSource(nan_after(0.06), ones_field)
    with pytest.raises(ValueError, match="^source theta is not finite at t = 0.1: value nan$"):
        check_stability_bound(states, source, part, m, dm)


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
    states = backward_euler_run(problem, part, m, dm, initial=initial)
    separable = check_stability_bound(states, problem.f, part, m, dm)
    plain = check_stability_bound(states, lambda t, x, y: problem.f(t, x, y), part, m, dm)
    for a, b in zip(separable, plain):
        assert relative_difference(a, b) <= 1e-12


def test_stability_bound_fails_on_nan_state(mesh_chain, dofmaps):
    m, dm = mesh_chain[1], dofmaps[1]
    part = TimePartition.uniform(0.1, 3)

    def ones(t, x, y):
        return np.ones(np.broadcast(x, y).shape)

    states = backward_euler_run(ones, part, m, dm, coeffs=HEAT, variant="primary")
    states[2].u_coeffs[0] = np.nan
    with pytest.raises(AssertionError, match="stability bound violated at step 2: nan"):
        check_stability_bound(states, ones, part, m, dm)


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
